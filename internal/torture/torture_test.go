package torture

import (
	"fmt"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

func report(t *testing.T, res Result) {
	t.Helper()
	max := len(res.Violations)
	if max > 10 {
		max = 10
	}
	for _, v := range res.Violations[:max] {
		t.Errorf("%s", v)
	}
	if len(res.Violations) > max {
		t.Errorf("... and %d more violations", len(res.Violations)-max)
	}
}

// TestAdversarialCrashSweep is the acceptance sweep: every crash point ×
// {seeded, persist-all, drop-all} × {default, buffered, eager-cow}, with
// metadata checksums on (so the seal/unseal protocol is torn apart at every
// point too) and a liveness probe after every recovery. -short strides the
// crash points instead of visiting all of them.
func TestAdversarialCrashSweep(t *testing.T) {
	cfg := Config{Checksums: true, Liveness: true}
	if testing.Short() {
		cfg.Stride = 17
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep executed no replays")
	}
	for combo, points := range res.Points {
		if points == 0 {
			t.Errorf("combo %s tested no crash points", combo)
		}
	}
	report(t, res)
}

// TestPlainContainerSweep runs a strided sweep without the checksum
// extension: the original protocol must hold under the adversarial
// policies too.
func TestPlainContainerSweep(t *testing.T) {
	cfg := Config{Stride: 13, Steps: 120, CkptEvery: 40}
	if testing.Short() {
		cfg.Stride = 41
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
}

// TestAlternatingPolicySweep exercises the per-line adversarial chooser.
func TestAlternatingPolicySweep(t *testing.T) {
	cfg := Config{
		Checksums: true,
		Stride:    11,
		Steps:     120,
		CkptEvery: 40,
		Policies:  []Policy{AdversarialPolicy()},
	}
	if testing.Short() {
		cfg.Stride = 43
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report(t, res)
}

// TestSweepDetectsBrokenProtocol sanity-checks the harness itself: a
// container mode whose "checkpoint" skips the commit protocol must light
// up with violations — a sweep that cannot fail proves nothing.
func TestSweepReferenceDeterminism(t *testing.T) {
	// Two reference runs of the same mode must agree on the primitive count
	// and shadows; otherwise crash indices would land on different ops.
	cfg := Config{Checksums: true}.withDefaults()
	script := BuildScript(cfg.Seed, cfg.Region.HeapSize, cfg.Steps, cfg.CkptEvery)
	m := cfg.Modes[0]
	f1, t1, s1, _, err := reference(cfg, m, script)
	if err != nil {
		t.Fatal(err)
	}
	f2, t2, s2, _, err := reference(cfg, m, script)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 || t1 != t2 || len(s1) != len(s2) {
		t.Fatalf("reference runs diverge: (%d,%d,%d) vs (%d,%d,%d)", f1, t1, len(s1), f2, t2, len(s2))
	}
}

// TestParallelMatchesSerial is the determinism acceptance test of the sweep
// scheduler on the torture side: a strided sweep produces an identical
// Result — same replay count, same per-combo points, same violations in the
// same order — at Parallel 1 and Parallel 8. Run under -race this also
// proves the replays share no mutable state.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(parallel int) Result {
		res, err := Sweep(Config{Checksums: true, Liveness: true, Stride: 13, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if serial.Replays == 0 {
		t.Fatal("sweep executed no replays")
	}
	if serial.Replays != parallel.Replays {
		t.Errorf("replays: serial %d, parallel %d", serial.Replays, parallel.Replays)
	}
	if len(serial.Points) != len(parallel.Points) {
		t.Errorf("combos: serial %d, parallel %d", len(serial.Points), len(parallel.Points))
	}
	for combo, pts := range serial.Points {
		if parallel.Points[combo] != pts {
			t.Errorf("combo %s: serial %d points, parallel %d", combo, pts, parallel.Points[combo])
		}
	}
	if len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("violations: serial %d, parallel %d", len(serial.Violations), len(parallel.Violations))
	}
	for i := range serial.Violations {
		if serial.Violations[i] != parallel.Violations[i] {
			t.Errorf("violation %d: serial %v, parallel %v", i, serial.Violations[i], parallel.Violations[i])
		}
	}
}

// TestPanicBecomesViolation verifies the sweep's panic containment: a
// protocol panic mid-replay is reported as a violation row for its crash
// point — identically at every parallelism level — instead of killing the
// process.
func TestPanicBecomesViolation(t *testing.T) {
	pol := Policy{"panicky", func(k int64) nvm.CrashPolicy {
		if k%2 == 1 {
			panic(fmt.Sprintf("policy exploded at %d", k))
		}
		return nvm.PersistAll
	}}
	for _, parallel := range []int{1, 4} {
		res, err := Sweep(Config{
			Stride:   7,
			Parallel: parallel,
			Modes:    StandardModes()[:1],
			Policies: []Policy{pol},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			t.Fatalf("parallel=%d: panicking policy produced no violations", parallel)
		}
		for _, v := range res.Violations {
			if v.Stage != "panic" {
				t.Fatalf("parallel=%d: violation stage %q, want panic: %v", parallel, v.Stage, v)
			}
			if v.Index%2 != 1 {
				t.Fatalf("parallel=%d: even crash point %d reported a panic", parallel, v.Index)
			}
		}
	}
}

// TestSweepOnRecycledDevices runs a strided sweep whose replays build
// their devices from memory released dirty: every byte non-zero, lines
// pending and dirty, a crash injection armed. Recycling must not leak any
// of it into a replay — the sweep still visits every point of the same
// grid and finds nothing.
func TestSweepOnRecycledDevices(t *testing.T) {
	cfg := Config{Checksums: true, Liveness: true, Stride: 23}
	l, err := region.NewLayout(cfg.withDefaults().Region)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, l.DeviceSize())
	for i := range junk {
		junk[i] = byte(i*7 + 1)
	}
	for i := 0; i < 8; i++ {
		d := nvm.NewDevice(l.DeviceSize())
		d.NTStore(0, junk)
		d.SFence()
		d.Store(100, []byte{0xFF})
		d.CLWB(100)
		d.Store(l.DeviceSize()-1, []byte{0xFF})
		d.FailAfter(3)
		d.Release()
	}
	got, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report(t, got)
	if got.Replays != want.Replays || fmt.Sprint(got.Points) != fmt.Sprint(want.Points) {
		t.Fatalf("sweep on recycled devices visited %d points %v, want %d %v",
			got.Replays, got.Points, want.Replays, want.Points)
	}
}
