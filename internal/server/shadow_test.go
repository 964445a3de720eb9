package server

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// refShadow is the full-copy oracle the versioned shadow replaces: one
// complete copy of the live map per sealed cut, pruned below the floor.
type refShadow struct {
	live  map[uint64]uint64
	snaps map[uint64]map[uint64]uint64
}

func (r *refShadow) seal(epoch, floor uint64) {
	r.snaps[epoch] = maps.Clone(r.live)
	for e := range r.snaps {
		if e < floor {
			delete(r.snaps, e)
		}
	}
}

// checkShadow compares every retained cut's full image and point lookups
// (present and absent keys alike) against the reference.
func checkShadow(t *testing.T, step int, s *shadow, ref *refShadow, keys uint64, epoch uint64) {
	t.Helper()
	if !maps.Equal(s.current(), ref.live) {
		t.Fatalf("step %d: live image diverged: got %v want %v", step, s.current(), ref.live)
	}
	for e := uint64(0); e <= epoch+1; e++ {
		want, kept := ref.snaps[e]
		if s.retained(e) != kept {
			t.Fatalf("step %d: epoch %d retained = %v, want %v", step, e, s.retained(e), kept)
		}
		img, ok := s.image(e)
		if ok != kept {
			t.Fatalf("step %d: epoch %d image available = %v, want %v", step, e, ok, kept)
		}
		if !kept {
			continue
		}
		if !maps.Equal(img, want) {
			t.Fatalf("step %d: epoch %d image %v, want %v", step, e, img, want)
		}
		for k := uint64(0); k < keys; k++ {
			v, ok := s.at(e, k)
			wv, wok := want[k]
			if v != wv || ok != wok {
				t.Fatalf("step %d: epoch %d key %d = %d,%v want %d,%v", step, e, k, v, ok, wv, wok)
			}
		}
	}
}

// TestShadowMatchesFullCopies drives random streams of puts, deletes,
// read-modify-writes, populate bursts, cut seals and re-seals of the
// latest cut through the versioned shadow and the full-copy reference,
// under both retention floors the service uses: the two-epoch recovery
// window, and a slowest secondary lagging several cuts behind.
func TestShadowMatchesFullCopies(t *testing.T) {
	const keys = 48
	for _, lagging := range []bool{false, true} {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("lagging=%v/seed=%d", lagging, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s := newShadow()
				ref := &refShadow{live: map[uint64]uint64{}, snaps: map[uint64]map[uint64]uint64{}}
				var epoch, installed uint64
				for step := 0; step < 600; step++ {
					k := uint64(rng.Intn(keys))
					switch r := rng.Intn(100); {
					case r < 35:
						v := rng.Uint64()
						s.put(k, v)
						ref.live[k] = v
					case r < 50:
						s.del(k)
						delete(ref.live, k)
					case r < 65:
						old, _ := s.get(k)
						v := old + uint64(rng.Intn(10))
						s.put(k, v)
						ref.live[k] = v
					case r < 70:
						for i := uint64(0); i < keys/4; i++ {
							s.put(k+keys+i, k+i)
							ref.live[k+keys+i] = k + i
						}
					default:
						if epoch == 0 || r >= 75 {
							epoch++ // otherwise re-seal the latest cut
						}
						floor := epoch - 1
						if lagging {
							// The slowest secondary installs cuts in order,
							// trailing the committed epoch by a random lag.
							if installed < epoch-1 && rng.Intn(3) == 0 {
								installed += uint64(rng.Intn(int(epoch-1-installed)) + 1)
							}
							floor = min(floor, installed)
						}
						s.seal(epoch, floor)
						ref.seal(epoch, floor)
					}
					checkShadow(t, step, s, ref, 2*keys, epoch)
				}
			})
		}
	}
}

// TestShadowSealCostsMutatedKeys guards the point of the versioned
// shadow: sealing a cut with many live keys and no mutations allocates
// nothing in proportion to the key count.
func TestShadowSealCostsMutatedKeys(t *testing.T) {
	s := newShadow()
	for k := uint64(0); k < 100_000; k++ {
		s.put(k, k)
	}
	epoch := uint64(1)
	s.seal(epoch, 0)
	allocs := testing.AllocsPerRun(20, func() {
		epoch++
		s.seal(epoch, epoch-1)
	})
	if allocs > 1 {
		t.Fatalf("sealing a cut over 100k unmutated keys allocates %.0f times, want at most 1", allocs)
	}
}

// BenchmarkShadowCut measures one cut's worth of shadow work at 100k
// live keys: updating a given number of distinct keys, then sealing the
// cut and pruning below the two-epoch floor. The cost tracks the keys
// mutated, not the keys live. (Timing the seal alone would need
// StopTimer around the updates, which costs more than a sub-microsecond
// seal.)
func BenchmarkShadowCut(b *testing.B) {
	const live = 100_000
	for _, mutated := range []int{0, 1_000, 8_000} {
		b.Run(fmt.Sprintf("mutated=%d", mutated), func(b *testing.B) {
			s := newShadow()
			for k := uint64(0); k < live; k++ {
				s.put(k, k)
			}
			epoch := uint64(1)
			s.seal(epoch, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := uint64(i) * 7919 % live
				for j := 0; j < mutated; j++ {
					k := (start + uint64(j)) % live
					s.put(k, k+epoch)
				}
				epoch++
				s.seal(epoch, epoch-1)
			}
		})
	}
}
