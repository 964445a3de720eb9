package server

import "maps"

// shadow is a shard's verification oracle: the live image of every acked
// mutation, plus the image at each retained cut. Instead of a full copy
// per cut it keeps one undo window per retained cut (the in-cache-line
// logging model of Cohen et al.): window e holds, for each key mutated
// after cut e was sealed, the key's value at that boundary, recorded the
// first time the key is written. Sealing a cut and pruning below the
// retention floor therefore cost the keys mutated, not the live keys.
//
// The image at retained epoch e is the live map with windows e, e+1, ...
// undone, newest first. Every mutation goes through put and del so the
// windows stay complete.
type shadow struct {
	live map[uint64]uint64
	wins []undoWindow // retained cuts, ascending epoch; the last is open
	free []map[uint64]preImage
}

// undoWindow holds the pre-images of the keys mutated since cut epoch was
// sealed, up to the next seal.
type undoWindow struct {
	epoch uint64
	pre   map[uint64]preImage
}

// preImage is a key's value at a window's cut boundary; ok is false when
// the key was absent there.
type preImage struct {
	val uint64
	ok  bool
}

func newShadow() *shadow {
	return &shadow{live: make(map[uint64]uint64)}
}

// record logs k's boundary value in the open window on its first write.
func (s *shadow) record(k uint64) {
	n := len(s.wins)
	if n == 0 {
		return
	}
	pre := s.wins[n-1].pre
	if _, seen := pre[k]; !seen {
		v, ok := s.live[k]
		pre[k] = preImage{val: v, ok: ok}
	}
}

// put sets k to v in the live image.
func (s *shadow) put(k, v uint64) {
	s.record(k)
	s.live[k] = v
}

// del removes k from the live image.
func (s *shadow) del(k uint64) {
	s.record(k)
	delete(s.live, k)
}

// get reads k from the live image.
func (s *shadow) get(k uint64) (uint64, bool) {
	v, ok := s.live[k]
	return v, ok
}

// current returns the live image. Callers must not modify it.
func (s *shadow) current() map[uint64]uint64 { return s.live }

// seal records the live image as cut epoch's and drops every cut below
// floor. Sealing an epoch again (or an earlier one) replaces its image
// with the live one: the windows opened at or after it fold into their
// predecessor, whose boundary then stretches to now.
func (s *shadow) seal(epoch, floor uint64) {
	for n := len(s.wins); n > 0 && s.wins[n-1].epoch >= epoch; n = len(s.wins) {
		last := s.wins[n-1].pre
		if n > 1 {
			prev := s.wins[n-2].pre
			for k, p := range last {
				if _, seen := prev[k]; !seen {
					prev[k] = p
				}
			}
		}
		s.recycle(last)
		s.wins = s.wins[:n-1]
	}
	var pre map[uint64]preImage
	if n := len(s.free); n > 0 {
		pre, s.free = s.free[n-1], s.free[:n-1]
	} else {
		pre = make(map[uint64]preImage)
	}
	s.wins = append(s.wins, undoWindow{epoch: epoch, pre: pre})
	drop := 0
	for drop < len(s.wins) && s.wins[drop].epoch < floor {
		s.recycle(s.wins[drop].pre)
		drop++
	}
	s.wins = append(s.wins[:0], s.wins[drop:]...)
}

func (s *shadow) recycle(pre map[uint64]preImage) {
	clear(pre)
	s.free = append(s.free, pre)
}

// window returns the index of cut epoch's window, or -1 when the cut is
// not retained.
func (s *shadow) window(epoch uint64) int {
	for i, w := range s.wins {
		if w.epoch == epoch {
			return i
		}
	}
	return -1
}

// retained reports whether cut epoch's image is still available.
func (s *shadow) retained(epoch uint64) bool { return s.window(epoch) >= 0 }

// at reads k from retained cut epoch's image: the first window from
// epoch on that logged k holds its value at that boundary; with none, k
// has not changed since.
func (s *shadow) at(epoch, k uint64) (uint64, bool) {
	for _, w := range s.wins[s.window(epoch):] {
		if p, seen := w.pre[k]; seen {
			return p.val, p.ok
		}
	}
	return s.get(k)
}

// image builds cut epoch's full image, or reports false when the cut is
// not retained.
func (s *shadow) image(epoch uint64) (map[uint64]uint64, bool) {
	i := s.window(epoch)
	if i < 0 {
		return nil, false
	}
	img := maps.Clone(s.live)
	for j := len(s.wins) - 1; j >= i; j-- {
		for k, p := range s.wins[j].pre {
			if p.ok {
				img[k] = p.val
			} else {
				delete(img, k)
			}
		}
	}
	return img, true
}
