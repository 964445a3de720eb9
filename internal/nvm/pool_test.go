package nvm

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestReleasedDevicePanics: every primitive, and every other call that
// touches device memory, panics with the release message on a released
// device — even with a crash injection armed at the release, and again
// after a recovered panic — instead of writing to nil slices or to the
// memory's next owner.
func TestReleasedDevicePanics(t *testing.T) {
	buf := make([]byte, 8)
	for _, tc := range []struct {
		name string
		op   func(d *Device)
	}{
		{"Store", func(d *Device) { d.Store(0, buf) }},
		{"StoreBulk", func(d *Device) { d.StoreBulk(0, buf) }},
		{"Load", func(d *Device) { d.Load(0, buf) }},
		{"NTStore", func(d *Device) { d.NTStore(0, buf) }},
		{"CLWB", func(d *Device) { d.CLWB(0) }},
		{"FlushRange", func(d *Device) { d.FlushRange(0, 4*LineSize) }},
		{"SFence", func(d *Device) { d.SFence() }},
		{"WBINVD", func(d *Device) { d.WBINVD() }},
		{"CrashWith", func(d *Device) { d.CrashWith(PersistAll) }},
		{"Working", func(d *Device) { _ = d.Working() }},
		{"MediaSnapshot", func(d *Device) { d.MediaSnapshot() }},
		{"FailAfter", func(d *Device) { d.FailAfter(-1) }},
		{"DirtyLineCount", func(d *Device) { d.DirtyLineCount() }},
		{"CorruptRange", func(d *Device) { d.CorruptRange(0, 8) }},
		{"TornWrite", func(d *Device) { d.TornWrite(0, 8) }},
		{"WriteMediaTo", func(d *Device) { _ = d.WriteMediaTo(io.Discard) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice(1 << 14)
			d.Store(0, buf)
			d.CLWB(0)
			d.Store(LineSize, buf) // one pending and one dirty line
			d.FailAfter(0)         // armed: the next primitive would crash
			d.Release()
			d.Release() // a second release is a no-op
			for i := 0; i < 2; i++ {
				func() {
					defer func() {
						if r := recover(); r != releasedMsg {
							t.Fatalf("call %d on a released device: recovered %v, want %q", i, r, releasedMsg)
						}
					}()
					tc.op(d)
				}()
			}
		})
	}
}

// recycleDevice builds a device of size, applies dirty, releases it, and
// returns the next NewDevice of that size together with the heap bytes
// that NewDevice allocated. It retries until the new device really reuses
// the released memory (sync.Pool may drop an item, at random under the
// race detector and at any GC).
func recycleDevice(t *testing.T, size int, dirty func(*Device)) (*Device, uint64) {
	t.Helper()
	for try := 0; try < 100; try++ {
		old := NewDevice(size)
		dirty(old)
		media := &old.media[0]
		old.Release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDevice(size)
		runtime.ReadMemStats(&after)
		if &d.media[0] == media {
			return d, after.TotalAlloc - before.TotalAlloc
		}
	}
	t.Fatal("NewDevice never reused a released device's memory")
	return nil, 0
}

// dirtyEverything leaves a device in the worst state for its memory's next
// owner: the undo arena grown to full size and filled with non-zero stale
// bytes, media and working non-zero everywhere, dirty and pending lines
// outstanding after a seeded crash, and a crash injection armed.
func dirtyEverything(d *Device) {
	size := d.Size()
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	d.NTStore(0, fill(0xEE))
	d.SFence()
	d.NTStore(0, fill(0x77)) // the arena now holds 0xEE on every line
	d.SFence()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		off := rng.Intn(size/8) * 8
		d.Store(off, []byte{0x5A, byte(i), 3, 4, 5, 6, 7, 8})
		if i%3 == 0 {
			d.CLWB(off)
		}
	}
	d.FlushRange(0, size/2) // unfenced: half the device pending
	d.Crash(rand.New(rand.NewSource(7)))
	d.Store(64, []byte{1})
	d.CLWB(64)
	d.NTStore(size-4*LineSize, fill(0x33)[:4*LineSize])
	d.Store(size-8, []byte{2}) // pending and dirty lines left at release
	d.FailAfter(1 << 40)
}

// script is a fixed workload over every primitive, ending with pending
// lines in flight so its seeded crash rolls some of them back from the
// undo arena.
func script(d *Device) {
	size := d.Size()
	rng := rand.New(rand.NewSource(5))
	line := bytes.Repeat([]byte{0xC3}, LineSize)
	var b [8]byte
	for i := 0; i < 400; i++ {
		off := rng.Intn(size-512) / 8 * 8
		switch i % 9 {
		case 0, 1, 2:
			d.Store(off, []byte{byte(i), 0x42})
		case 3:
			d.StoreBulk(off, line[:40])
		case 4:
			d.NTStore(off/LineSize*LineSize, line)
		case 5:
			d.CLWB(off)
		case 6:
			d.FlushRange(off, 300)
		case 7:
			d.Load(off, b[:])
		case 8:
			if i%27 == 8 {
				d.SFence()
			}
		}
		if i == 200 {
			d.WBINVD()
		}
	}
	d.NTStore(0, bytes.Repeat([]byte{0x99}, 3*LineSize+5))
	d.FlushRange(size/2, size/4) // pending lines the crash may roll back
}

// TestRecycledDeviceMatchesFresh is the differential check of recycling:
// the same script on a device built from a released device's memory and
// on a never-pooled device of the same size yields identical working and
// media images, counters, primitive counts, clocks, crash-injection
// points and post-crash images. Stale undo-arena bytes therefore cannot
// leak into a rollback, and no bitmap state survives the release.
func TestRecycledDeviceMatchesFresh(t *testing.T) {
	const size = 1<<16 + 3*LineSize // a size no other test recycles
	fresh := NewDevice(size)        // built before any release of this size
	rec, _ := recycleDevice(t, size, dirtyEverything)

	compare := func(stage string) {
		t.Helper()
		if !bytes.Equal(fresh.Working(), rec.Working()) {
			t.Fatalf("%s: working images differ at byte %d", stage, firstDiffByte(fresh.Working(), rec.Working()))
		}
		if !bytes.Equal(fresh.MediaSnapshot(), rec.MediaSnapshot()) {
			t.Fatalf("%s: media images differ at byte %d", stage, firstDiffByte(fresh.MediaSnapshot(), rec.MediaSnapshot()))
		}
		if fresh.Stats() != rec.Stats() {
			t.Fatalf("%s: stats differ:\n fresh    %v\n recycled %v", stage, fresh.Stats(), rec.Stats())
		}
		if fresh.PrimitiveCount() != rec.PrimitiveCount() {
			t.Fatalf("%s: primitive counts %d vs %d", stage, fresh.PrimitiveCount(), rec.PrimitiveCount())
		}
		if fresh.Clock().NowPS() != rec.Clock().NowPS() {
			t.Fatalf("%s: clocks %d vs %d ps", stage, fresh.Clock().NowPS(), rec.Clock().NowPS())
		}
		if fresh.DirtyLineCount() != rec.DirtyLineCount() {
			t.Fatalf("%s: dirty lines %d vs %d", stage, fresh.DirtyLineCount(), rec.DirtyLineCount())
		}
	}
	compare("new")
	script(fresh)
	script(rec)
	compare("script")
	fresh.Crash(rand.New(rand.NewSource(11)))
	rec.Crash(rand.New(rand.NewSource(11)))
	compare("seeded crash")

	// Crash injection counts from the recycled device's own creation, not
	// from the armed countdown its memory's previous owner left behind.
	crashAt := func(d *Device) InjectedCrash {
		var ic InjectedCrash
		func() {
			defer func() { ic, _ = recover().(InjectedCrash) }()
			d.FailAfter(37)
			script(d)
		}()
		return ic
	}
	if a, b := crashAt(fresh), crashAt(rec); a != b || a.Index == 0 {
		t.Fatalf("injected crash: fresh %+v, recycled %+v", a, b)
	}
	fresh.CrashWith(Alternating(1))
	rec.CrashWith(Alternating(1))
	compare("injected crash")
}

func firstDiffByte(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRecycleAllocatesLittle is the allocation guard: with GC disabled,
// a NewDevice that reuses a released device of the same size allocates
// under 1/16 of the device size (the struct and its clock, not images,
// bitmaps or an undo arena).
func TestRecycleAllocatesLittle(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const size = 4<<20 + LineSize // a size no other test recycles
	d, alloc := recycleDevice(t, size, dirtyEverything)
	if alloc >= size/16 {
		t.Fatalf("recycled NewDevice allocated %d bytes, want < %d", alloc, size/16)
	}
	if len(d.undo) != size {
		t.Fatalf("recycled undo arena has %d bytes, want the grown %d", len(d.undo), size)
	}
	d.Release()
}

// TestRecycleConcurrent: devices built and released from several
// goroutines at once never share memory and always start zeroed — each
// goroutine stamps its own tag over its whole device, fences it, and
// checks no foreign or stale byte shows up before releasing it.
func TestRecycleConcurrent(t *testing.T) {
	const size, workers, rounds = 1<<14 + 5*LineSize, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			img := bytes.Repeat([]byte{tag}, size)
			for i := 0; i < rounds; i++ {
				d := NewDevice(size)
				if !bytes.Equal(d.Working(), make([]byte, size)) || !bytes.Equal(d.MediaSnapshot(), make([]byte, size)) {
					t.Errorf("worker %d round %d: new device not zeroed", tag, i)
					return
				}
				d.NTStore(0, img)
				d.Store(size/2, []byte{tag})
				d.CLWB(size / 2)
				d.SFence()
				if !bytes.Equal(d.Working(), img) || !bytes.Equal(d.MediaSnapshot(), img) {
					t.Errorf("worker %d round %d: device shares memory with another", tag, i)
					return
				}
				d.Release()
			}
		}(byte(w + 1))
	}
	wg.Wait()
}

// BenchmarkNewDevice: building a 4 MiB device from fresh memory versus
// from a released device's memory.
func BenchmarkNewDevice(b *testing.B) {
	const size = 4 << 20
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewDevice(size)
		}
	})
	b.Run("recycled", func(b *testing.B) {
		NewDevice(size).Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewDevice(size).Release()
		}
	})
}
