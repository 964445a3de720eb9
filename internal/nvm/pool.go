package nvm

import (
	"sync"

	"libcrpm/internal/bitmap"
)

// memory is the recyclable backing store of one device: the CPU and media
// images, the undo arena and the three line bitmaps.
type memory struct {
	media, working, undo      []byte
	dirty, pending, crashSkip *bitmap.Set
}

// pools maps a device size to the *sync.Pool of released memory of that
// size. Only Release creates entries, so a program that never releases a
// device pays one failed lookup per NewDevice.
var pools sync.Map

// takeMemory returns zeroed memory for a device of size bytes (a whole
// number of lines): a released set when one is pooled, else a fresh one.
// A recycled undo arena is not cleared — only pending lines' undo bytes
// are ever read, and markPending/NTStore write them when a line becomes
// pending — so it keeps whatever length its last owner grew it to.
func takeMemory(size int) *memory {
	if p, ok := pools.Load(size); ok {
		if m, _ := p.(*sync.Pool).Get().(*memory); m != nil {
			clear(m.media)
			clear(m.working)
			m.dirty.ClearAll()
			m.pending.ClearAll()
			m.crashSkip.ClearAll()
			return m
		}
	}
	lines := size / LineSize
	return &memory{
		media:     make([]byte, size),
		working:   make([]byte, size),
		dirty:     bitmap.New(lines),
		pending:   bitmap.New(lines),
		crashSkip: bitmap.New(lines),
	}
}

// releasedMsg is the panic value of any memory-touching call on a device
// after Release.
const releasedMsg = "nvm: use of a released device"

// mustLive panics if the device has been released.
func (d *Device) mustLive() {
	if d.released {
		panic(releasedMsg)
	}
}

// Release hands the device's memory to a process-wide free list keyed by
// size, from which the next NewDevice of the same size takes it instead of
// allocating and zero-filling a fresh set. Only the device's sole owner
// may call it, once nothing will touch the device again: a sweep cell
// after verifying its replay, say. The device is poisoned: every later
// primitive (Store through CrashWith), Working, MediaSnapshot and the
// media-fault and serialization calls panic with a clear message instead
// of writing to nil slices or to the memory's next owner. Slices obtained
// from Working before the release are not poisoned — they alias the next
// owner's memory — so callers must drop them first. Simulated time and
// counters are untouched: recycling changes only where the bytes live.
// A second Release is a no-op.
func (d *Device) Release() {
	if d.released {
		return
	}
	m := &memory{
		media: d.media, working: d.working, undo: d.undo,
		dirty: d.dirty, pending: d.pending, crashSkip: d.crashSkip,
	}
	d.media, d.working, d.undo = nil, nil, nil
	d.dirty, d.pending, d.crashSkip = nil, nil, nil
	d.released = true
	// An expired countdown routes every ticking primitive into fire, which
	// panics on the released flag; FailAfter cannot re-arm it.
	d.failAfter = 0
	p, ok := pools.Load(d.size)
	if !ok {
		p, _ = pools.LoadOrStore(d.size, new(sync.Pool))
	}
	p.(*sync.Pool).Put(m)
}
