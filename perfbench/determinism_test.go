package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"libcrpm/internal/sched"
	"libcrpm/internal/server"
	"libcrpm/internal/torture"
	"libcrpm/internal/workload"
)

// tiny shrinks a workload's service so a run takes milliseconds while
// keeping its shape: cut style, pipeline, open loop and migration.
func tiny(cfg server.Config) server.Config {
	cfg.Keys = 2_000
	cfg.HeapSize = 2 << 20
	cfg.Buckets = 1 << 10
	cfg.Ops = 40_000
	cfg.Policy = server.OpsPolicy{Every: 4096}
	if m := cfg.Measure; m != nil {
		mc := *m
		mc.WarmupOps = 4_000
		cfg.Measure = &mc
	}
	return cfg
}

// simOutputs is everything a run reports on the simulated clock: the
// fingerprint, the sim_* metrics and the core/nvm/mpi layer counters.
type simOutputs struct {
	Fingerprint string
	PauseMaxPS  int64
	Layers      map[string]float64
}

func simRun(t *testing.T, cfg server.Config, trace bool) simOutputs {
	t.Helper()
	cfg.Trace = trace
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("%d violations, first %v", len(res.Violations), res.Violations[0])
	}
	out := simOutputs{Fingerprint: serviceFingerprint(res), Layers: map[string]float64{}}
	if trace {
		out.PauseMaxPS = servingPauseMaxPS(res.Trace)
		simLayers(out.Layers, res.Trace, res.TotalOps, nil, 1)
	}
	return out
}

func tinyConfigs(seed int64) map[string]server.Config {
	return map[string]server.Config{
		"read-zipf":  tiny(readZipfConfig(seed)),
		"write-open": tiny(openConfig(seed, uniformA(), refRung, openMeasured)),
		"split-open": tiny(splitOpenConfig(seed)),
	}
}

func withProcs(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestSimulatedOutputsRepeat: two runs of one seed, at GOMAXPROCS 1 and
// 2, traced or not, report bit-identical simulated outputs.
func TestSimulatedOutputsRepeat(t *testing.T) {
	for name, cfg := range tinyConfigs(5) {
		t.Run(name, func(t *testing.T) {
			var a, b, c simOutputs
			withProcs(2, func() { a = simRun(t, cfg, true) })
			withProcs(2, func() { b = simRun(t, cfg, true) })
			withProcs(1, func() { c = simRun(t, cfg, true) })
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("repeated run differs:\n%+v\n%+v", a, b)
			}
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("GOMAXPROCS 1 differs from 2:\n%+v\n%+v", c, a)
			}
			if a.PauseMaxPS <= 0 || a.Layers["core.ckpt_sim_us_per_cut"] <= 0 {
				t.Fatalf("traced run reports no serving cuts: %+v", a)
			}
			// The benchmark times untraced repetitions against a traced
			// reference, so tracing must not move the simulated clock.
			if u := simRun(t, cfg, false); u.Fingerprint != a.Fingerprint {
				t.Fatalf("tracing changed the simulated outputs:\n%s\n%s", u.Fingerprint, a.Fingerprint)
			}
		})
	}
}

// TestSweepRepeats: the crash-failover sweep reports the same replays and
// points at GOMAXPROCS 1 and 2, and matches the expected replay count.
func TestSweepRepeats(t *testing.T) {
	cfg := crashFailoverConfig(5)
	cfg.CrashShards = []int{1}
	cfg.Stride = 211 // a handful of points; this test is about identity
	ref := cfg.Server
	ref.Liveness = true
	svc, err := server.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	var a, b torture.ServiceResult
	withProcs(2, func() { a, err = torture.ServiceSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	withProcs(1, func() { b, err = torture.ServiceSweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep differs across GOMAXPROCS:\n%+v\n%+v", a, b)
	}
	if !a.OK() || a.Replays == 0 {
		t.Fatalf("sweep: %d replays, %d violations", a.Replays, len(a.Violations))
	}
	sp := svc.PrimitiveSpans()[1]
	if want := int((sp[1]-sp[0]-2)/211+1) * len(cfg.Policies); a.Replays != want {
		t.Fatalf("%d replays, want %d", a.Replays, want)
	}
}

// TestExpectedReplaysMatchesSweep: the default-stride replay count the
// benchmark checks against is the one the sweep runs.
func TestExpectedReplaysMatchesSweep(t *testing.T) {
	cfg := crashFailoverConfig(3)
	cfg.Server.Ops = 200
	ref := cfg.Server
	ref.Liveness = true
	svc, err := server.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := torture.ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedReplays(svc.PrimitiveSpans(), len(cfg.Policies)); res.Replays != want {
		t.Fatalf("sweep ran %d replays, benchmark expects %d", res.Replays, want)
	}
}

// TestSeedsDiffer: another seed gives other client streams and other
// simulated outputs.
func TestSeedsDiffer(t *testing.T) {
	stream := func(seed int64) []workload.Op {
		cfg := readZipfConfig(seed)
		g := workload.NewGenerator(cfg.Mix, cfg.Keys, 0, cfg.Clients, sched.SeedFor(fmt.Sprintf("serve/%d/client/0", seed)))
		ops := make([]workload.Op, 1000)
		for i := range ops {
			ops[i] = g.Next()
		}
		return ops
	}
	if reflect.DeepEqual(stream(1), stream(2)) {
		t.Fatal("seeds 1 and 2 generate the same stream")
	}
	if a, b := simRun(t, tinyConfigs(1)["read-zipf"], false), simRun(t, tinyConfigs(2)["read-zipf"], false); a.Fingerprint == b.Fingerprint {
		t.Fatalf("seeds 1 and 2 give identical outputs: %s", a.Fingerprint)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json lists exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		for i := 0; i < 1000; i++ {
			n ^= i * n
		}
	}
	return n
}

// TestProfileShares: the per-package self-time shares attribute a
// CPU-bound loop to its package and sum to 100%.
func TestProfileShares(t *testing.T) {
	stop := startProfile()
	spin(300 * time.Millisecond)
	prof := stop()
	if len(prof) == 0 {
		t.Skip("CPU profiling unavailable")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		t.Fatal(err)
	}
	shares, err := selfSharesByPackage(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 99 || total > 101 {
		t.Fatalf("shares sum to %v: %v", total, shares)
	}
	if shares["libcrpm/perfbench"] < 50 {
		t.Fatalf("spin loop got %.1f%% of self time: %v", shares["libcrpm/perfbench"], shares)
	}
	if got := packageOf("libcrpm/internal/core.(*Container).OnWrite"); got != "libcrpm/internal/core" {
		t.Fatalf("packageOf = %q", got)
	}
}

// TestServeOnceSpans: the Progress-callback phases tile Run's wall time
// and every wall span closes under its parent.
func TestServeOnceSpans(t *testing.T) {
	spans := newSpanLog("test")
	root := spans.begin("read-zipf", -1)
	sv, err := serveOnce(tinyConfigs(1)["read-zipf"], repMode{spans: spans}, "", root)
	spans.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sv.populateS + sv.serveS + sv.verifyS; sum < sv.run.wall*0.999 || sum > sv.run.wall*1.001 {
		t.Fatalf("phases sum to %v s, Run took %v s", sum, sv.run.wall)
	}
	for _, s := range spans.spans {
		if s.End < s.Start {
			t.Fatalf("span %q never ended", s.Name)
		}
		if s.Parent >= 0 {
			p := spans.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %q [%d, %d] escapes its parent %q [%d, %d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	var buf strings.Builder
	if err := spans.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
}
