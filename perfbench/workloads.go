package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"libcrpm/internal/measure"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
	"libcrpm/internal/server"
	"libcrpm/internal/torture"
	"libcrpm/internal/workload"
)

// Load shape shared by every workload: two boot shards, verification
// fan-out of two, cuts every 16384 acked ops. The incremental pipeline
// drains each cut in 256 KiB quanta, the elastic figure's inc-pipeline
// setting.
const (
	bootShards   = 2
	parallel     = 2
	cutEvery     = 16384
	stepBudget   = 256 << 10
	servingKeys  = 100_000
	servingHeap  = 32 << 20
	servingConns = 8

	// readZipfOps sizes one read-zipf repetition. At ~1 µs of wall time
	// per op (set-up plus serving) a repetition takes about 1 s, so a
	// 25 s run medians about twenty of them: the machine's noise varies
	// from one repetition to the next, so many short repetitions give a
	// steadier median than a few long ones.
	readZipfOps = 1_000_000

	// Open-loop runs measure openMeasured ops after openWarmup excluded
	// ones, which cover the first cuts after populate (their first writes
	// copy whole segments). p999 of 1M samples has 1000 samples beyond
	// it. The write-open rungs other than the reference measure
	// rungMeasured ops: p999 still has 250 samples beyond it, and the
	// ladder stays short enough for several repetitions per run.
	openWarmup   = 100_000
	openMeasured = 1_000_000
	rungMeasured = 250_000

	// sloLimitPS is the write-open latency limit on open-loop p999:
	// 2 ms of simulated time.
	sloLimitPS = 2_000_000_000
	// refRung is the write-open rung the sim_open_* metrics come from.
	refRung = 2

	// splitOpenMops is split-open's offered load.
	splitOpenMops = 1
)

// ladderRungs are write-open's offered rates, Mops/s. The pipeline's
// capacity is about 4.1-4.15 Mops/s over the measured window: rungs 1-4
// deliver their offered rate (rung 4 to within 0.04%) and rung 5 is past
// the knee.
var ladderRungs = []int{1, 2, 3, 4, 5}

// subKneeRungs must deliver their offered rate to within 1%.
var subKneeRungs = map[int]bool{1: true, 2: true, 3: true, 4: true}

// latencyBounds are the open-loop histogram bounds: 1 ns to ~4.4 s of
// simulated time in 64 sub-buckets per octave, so every reported quantile
// lies within 1/64 (1.6%) above the true value. The server's own
// request-latency track uses factor-2 octaves, which would report bucket
// edges.
var latencyBounds = measure.LogBounds(1_000, 64, 4_400_000_000_000)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	run  func(seed int64, mode repMode) (*rep, error)
	// layerConfig is the service whose trace the per-layer metrics
	// describe.
	layerConfig func(seed int64) server.Config
}

var workloads = []workloadDef{
	{"read-zipf", runReadZipf, readZipfConfig},
	{"write-open", runWriteOpen, func(seed int64) server.Config { return openConfig(seed, uniformA(), refRung, openMeasured) }},
	{"crash-failover", runCrashFailover, func(seed int64) server.Config { return crashFailoverConfig(seed).Server }},
	{"split-open", runSplitOpen, splitOpenConfig},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// repMode selects what a repetition records besides its timings.
type repMode struct {
	// trace turns on Config.Trace so simulated spans and counters can be
	// read from Result.Trace.
	trace bool
	// spans, when non-nil, receives the benchmark's own wall spans around
	// every public call.
	spans *spanLog
	// profile records a CPU profile of the calls the per-layer metrics
	// describe.
	profile bool
	// simOnly lets a workload whose simulated metrics come from its
	// set-up skip the measured call.
	simOnly bool
}

// rep is one repetition of a workload: a set-up plus a measured call.
type rep struct {
	setup, run cost
	// allocBytes, mallocs and gcCycles are runtime deltas over set-up and
	// the measured call.
	allocBytes, mallocs, gcCycles uint64
	// attempted counts acked ops (sweeps: replays); failed counts
	// verification violations and failed output checks.
	attempted, failed int
	checkErrs         []string
	// fingerprint holds the exact simulated outputs; every repetition of
	// one seed must reproduce it.
	fingerprint string
	// sim holds the exact simulated metrics (sim_*); those that need
	// simulated spans are present only for traced repetitions.
	sim map[string]float64
	// layer holds per-layer metrics the repetition can supply.
	layer map[string]float64
	// cpuProfile is the raw pprof profile of the set-up and measured call
	// of the service the per-layer metrics describe.
	cpuProfile []byte
	// simTrace holds the simulated tracks of the service run the
	// per-layer metrics describe (traced repetitions only), and simOps
	// that run's acked ops.
	simTrace *obs.Trace
	simOps   uint64
}

func newRep() *rep {
	return &rep{sim: map[string]float64{}, layer: map[string]float64{}}
}

func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// violations counts n verification violations of what as failures.
func (r *rep) violations(what string, n int) {
	if n > 0 {
		r.failed += n
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("%s: %d verification violations", what, n))
	}
}

// cost is the wall-clock and the process CPU (user plus system) time of
// one call, in seconds.
type cost struct{ wall, cpu float64 }

func (c cost) plus(o cost) cost { return cost{c.wall + o.wall, c.cpu + o.cpu} }

// mark is one point on both clocks.
type mark struct {
	t   time.Time
	cpu float64
}

func markNow() mark {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return mark{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()}
}

// to is the cost from m to end.
func (m mark) to(end mark) cost { return cost{end.t.Sub(m.t).Seconds(), end.cpu - m.cpu} }

func medianCost(cs []cost) cost {
	var w, c []float64
	for _, x := range cs {
		w, c = append(w, x.wall), append(c, x.cpu)
	}
	return cost{median(w), median(c)}
}

// memDelta captures runtime counters around a repetition.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	runtime.GC()
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) finish(r *rep) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - m.before.TotalAlloc
	r.mallocs = after.Mallocs - m.before.Mallocs
	r.gcCycles = uint64(after.NumGC - m.before.NumGC)
}

// served is one timed server.New plus Service.Run.
type served struct {
	svc        *server.Service
	res        *server.Result
	setup, run cost
	// populateS, serveS and verifyS split the run's wall time at the first and last
	// Progress callback: shard 0 calls it at every batch boundary, so the
	// first call ends populate (plus one batch) and the last ends serving.
	populateS, serveS, verifyS float64
	// allocBytes is the Go heap allocated by New and Run.
	allocBytes uint64
	prof       []byte
}

// serveOnce builds and runs one service through its public entry points,
// timing each call from outside.
func serveOnce(cfg server.Config, mode repMode, label string, parent int) (served, error) {
	var first, last time.Time
	cfg.Progress = func(done, total int) {
		last = time.Now()
		if first.IsZero() {
			first = last
		}
	}
	cfg.Trace = mode.trace
	var out served
	var stop func() []byte
	if mode.profile {
		stop = startProfile()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	id := mode.spans.begin(join("server.New", label), parent)
	m0 := markNow()
	svc, err := server.New(cfg)
	m1 := markNow()
	mode.spans.end(id)
	if err != nil {
		if stop != nil {
			stop()
		}
		return out, err
	}
	id = mode.spans.begin(join("Service.Run", label), parent)
	m2 := markNow()
	res, err := svc.Run()
	m3 := markNow()
	if stop != nil {
		out.prof = stop()
	}
	mode.spans.end(id)
	if err != nil {
		return out, err
	}
	t2, t3 := m2.t, m3.t
	if first.IsZero() {
		first, last = t3, t3
	}
	mode.spans.add(join("populate", label), t2, first, id)
	mode.spans.add(join("serve", label), first, last, id)
	mode.spans.add(join("verify", label), last, t3, id)
	out.svc, out.res = svc, res
	out.setup, out.run = m0.to(m1), m2.to(m3)
	runtime.ReadMemStats(&ms)
	out.allocBytes = ms.TotalAlloc - alloc0
	out.populateS, out.serveS, out.verifyS = first.Sub(t2).Seconds(), last.Sub(first).Seconds(), t3.Sub(last).Seconds()
	return out, nil
}

func join(name, label string) string {
	if label == "" {
		return name
	}
	return name + " " + label
}

func readZipfConfig(seed int64) server.Config {
	return server.Config{
		Shards:   bootShards,
		Clients:  servingConns,
		Mix:      workload.YCSBB,
		Ops:      readZipfOps,
		Keys:     servingKeys,
		HeapSize: servingHeap,
		Policy:   server.OpsPolicy{Every: cutEvery},
		Seed:     seed,
		Parallel: parallel,
	}
}

// uniformA is YCSB-A with uniform keys: almost every update dirties a
// fresh block.
func uniformA() workload.YCSBMix {
	m := workload.YCSBA
	m.Name = "A-uniform"
	m.Dist = workload.DistUniform
	return m
}

func openConfig(seed int64, mix workload.YCSBMix, mops, measured int) server.Config {
	return server.Config{
		Shards:     bootShards,
		Clients:    servingConns,
		Mix:        mix,
		Ops:        openWarmup + measured,
		Keys:       servingKeys,
		HeapSize:   servingHeap,
		Policy:     server.OpsPolicy{Every: cutEvery},
		StepBudget: stepBudget,
		Measure: &measure.Config{
			TargetOps: float64(mops) * 1e6,
			WarmupOps: openWarmup,
			Bounds:    latencyBounds,
		},
		Seed:     seed,
		Parallel: parallel,
	}
}

func splitOpenConfig(seed int64) server.Config {
	cfg := openConfig(seed, workload.YCSBA, splitOpenMops, openMeasured)
	cfg.Migrations = []server.MigrateSpec{{Kind: server.MigrateSplit, Src: 0, AfterCuts: 2}}
	return cfg
}

// crashFailoverConfig is the tiny replicated service the kill-primary
// sweep crashes: every replay rebuilds devices for two primaries and
// their secondaries, so device set-up dominates the sweep.
func crashFailoverConfig(seed int64) torture.ServiceConfig {
	return torture.ServiceConfig{
		Server: server.Config{
			Shards:   bootShards,
			Clients:  4,
			Mix:      workload.YCSBCrud,
			Ops:      2000,
			Keys:     150,
			HeapSize: 1 << 20,
			Buckets:  1 << 9,
			BatchOps: 128,
			Policy:   server.NewPausePolicy(2 * time.Microsecond),
			Replicas: 1,
			Seed:     seed,
			Parallel: parallel,
		},
		Policies:    torture.StandardPolicies(seed),
		KillPrimary: true,
		Parallel:    parallel,
	}
}

// crashDeviceSize is the device size of one crash-failover shard.
func crashDeviceSize() (int, error) {
	l, err := region.NewLayout(region.Config{HeapSize: 1 << 20, BackupRatio: 1})
	if err != nil {
		return 0, err
	}
	return l.DeviceSize(), nil
}

// serviceFingerprint renders the exact simulated outputs of a clean run.
func serviceFingerprint(res *server.Result) string {
	s := fmt.Sprintf("ops=%d cuts=%d sim=%d tput=%v", res.TotalOps, res.Cuts, res.SimPS, res.ThroughputOps)
	if m := res.Measure; m != nil {
		s += fmt.Sprintf(" open=%+v svc=%+v achieved=%v", m.OpenAll, m.ServiceAll, m.AchievedOps)
	}
	for _, mg := range res.Migrations {
		s += fmt.Sprintf(" mig=%+v", mg)
	}
	return s
}

func runReadZipf(seed int64, mode repMode) (*rep, error) {
	r := newRep()
	cfg := readZipfConfig(seed)
	root := mode.spans.begin("read-zipf", -1)
	mem := startMem()
	sv, err := serveOnce(cfg, mode, "", root)
	mem.finish(r)
	mode.spans.end(root)
	if err != nil {
		return nil, fmt.Errorf("read-zipf: %w", err)
	}
	res := sv.res
	r.setup, r.run, r.cpuProfile = sv.setup, sv.run, sv.prof
	r.attempted = int(res.TotalOps)
	r.violations("read-zipf", len(res.Violations))
	r.check(res.TotalOps == uint64(cfg.Ops), "read-zipf: acked %d of %d ops", res.TotalOps, cfg.Ops)
	r.fingerprint = serviceFingerprint(res)
	r.sim["sim_mops"] = res.ThroughputOps / 1e6
	r.serviceLayers(sv)
	if res.Trace != nil {
		r.sim["sim_pause_max_us"] = float64(servingPauseMaxPS(res.Trace)) / 1e6
	}
	return r, nil
}

// serviceLayers records the server-layer metrics of one Run and, when
// it was traced, its simulated tracks and counters.
func (r *rep) serviceLayers(sv served) {
	r.layer["server.populate_s"] = sv.populateS
	r.layer["server.serve_s"] = sv.serveS
	r.layer["server.verify_s"] = sv.verifyS
	r.layer["server.cuts"] = float64(sv.res.Cuts)
	r.layer["server.alloc_mb_per_cut"] = float64(sv.allocBytes) / 1e6 / float64(sv.res.Cuts)
	r.simTrace, r.simOps = sv.res.Trace, sv.res.TotalOps
}

func runWriteOpen(seed int64, mode repMode) (*rep, error) {
	r := newRep()
	root := mode.spans.begin("write-open", -1)
	defer mode.spans.end(root)
	mem := startMem()
	sloMops := 0.0
	for _, mops := range ladderRungs {
		label := fmt.Sprintf("r%dmops", mops)
		measured := rungMeasured
		if mops == refRung {
			measured = openMeasured
		}
		cfg := openConfig(seed, uniformA(), mops, measured)
		rung := mode.spans.begin("rung "+label, root)
		sv, err := serveOnce(cfg, mode, label, rung)
		mode.spans.end(rung)
		if err != nil {
			return nil, fmt.Errorf("write-open %s: %w", label, err)
		}
		res := sv.res
		r.setup = r.setup.plus(sv.setup)
		r.run = r.run.plus(sv.run)
		r.attempted += int(res.TotalOps)
		r.violations("write-open "+label, len(res.Violations))
		r.fingerprint += label + ": " + serviceFingerprint(res) + "\n"
		m := res.Measure
		if m == nil {
			r.check(false, "write-open %s: no measurement report", label)
			continue
		}
		r.check(m.MeasuredOps == int64(measured), "write-open %s: measured %d ops, want %d", label, m.MeasuredOps, measured)
		ratio := m.AchievedOps / m.TargetOps
		if subKneeRungs[mops] {
			r.check(math.Abs(ratio-1) <= 0.01, "write-open %s: achieved %.4f of offered", label, ratio)
		}
		if m.OpenAll.P999PS <= sloLimitPS && ratio >= 0.99 {
			sloMops = m.AchievedOps / 1e6
		}
		r.layer["measure.open_p999_us."+label] = float64(m.OpenAll.P999PS) / 1e6
		if mops == ladderRungs[len(ladderRungs)-1] {
			// The top rung is past the knee, so its rate over the measured
			// window (populate, its cut and the warm-up left out) is the
			// pipeline's capacity.
			r.sim["sim_mops"] = m.AchievedOps / 1e6
		}
		if mops == refRung {
			if res.Trace != nil {
				r.sim["sim_pause_max_us"] = float64(servingPauseMaxPS(res.Trace)) / 1e6
			}
			// The reference rung supplies the latency metrics, its
			// profile and its per-layer breakdown.
			r.cpuProfile = sv.prof
			r.openMetrics(m)
			r.serviceLayers(sv)
		}
	}
	mem.finish(r)
	r.check(sloMops > 0, "write-open: no rung met the %d us p999 limit", sloLimitPS/1_000_000)
	r.sim["sim_slo_mops"] = sloMops
	return r, nil
}

// openMetrics records the sim_open_* metrics and their measure-layer
// breakdown from one open-loop report.
func (r *rep) openMetrics(m *measure.Report) {
	r.sim["sim_open_p50_us"] = float64(m.OpenAll.P50PS) / 1e6
	r.sim["sim_open_p999_us"] = float64(m.OpenAll.P999PS) / 1e6
	r.layer["measure.open_samples"] = float64(m.OpenAll.N)
	r.layer["measure.service_p999_us"] = float64(m.ServiceAll.P999PS) / 1e6
	r.layer["measure.queue_gap_p999_us"] = float64(m.OpenAll.P999PS-m.ServiceAll.P999PS) / 1e6
}

func runSplitOpen(seed int64, mode repMode) (*rep, error) {
	r := newRep()
	cfg := splitOpenConfig(seed)
	root := mode.spans.begin("split-open", -1)
	mem := startMem()
	sv, err := serveOnce(cfg, mode, "", root)
	mem.finish(r)
	mode.spans.end(root)
	if err != nil {
		return nil, fmt.Errorf("split-open: %w", err)
	}
	res := sv.res
	r.setup, r.run, r.cpuProfile = sv.setup, sv.run, sv.prof
	r.attempted = int(res.TotalOps)
	r.violations("split-open", len(res.Violations))
	r.fingerprint = serviceFingerprint(res)
	r.serviceLayers(sv)
	r.sim["sim_mops"] = res.ThroughputOps / 1e6
	if res.Trace != nil {
		r.sim["sim_pause_max_us"] = float64(servingPauseMaxPS(res.Trace)) / 1e6
	}
	r.check(len(res.Migrations) == 1, "split-open: %d migrations, want exactly 1", len(res.Migrations))
	if len(res.Migrations) == 1 {
		mg := res.Migrations[0]
		r.check(mg.FlipPS > mg.StartPS && mg.FlipEpoch > 0, "split-open: migration never flipped (%+v)", mg)
		r.layer["migrate.window_sim_ms"] = float64(mg.FlipPS-mg.StartPS) / 1e9
		r.layer["migrate.moved_keys"] = float64(mg.MovedKeys)
		r.layer["migrate.catchup_ops"] = float64(mg.CatchupOps)
	}
	m := res.Measure
	if m == nil {
		r.check(false, "split-open: no measurement report")
		return r, nil
	}
	ratio := m.AchievedOps / m.TargetOps
	r.check(math.Abs(ratio-1) <= 0.01, "split-open: achieved %.4f of offered", ratio)
	r.openMetrics(m)
	r.layer[fmt.Sprintf("measure.open_p999_us.r%dmops", splitOpenMops)] = float64(m.OpenAll.P999PS) / 1e6
	var worst int64
	for _, iv := range m.Intervals {
		if iv.OpenP99PS > worst {
			worst = iv.OpenP99PS
		}
	}
	r.layer["migrate.worst_interval_p99_us"] = float64(worst) / 1e6
	return r, nil
}

// warmups is how many times crash-failover repeats its set-up per
// repetition; setup_s is their median.
const warmups = 5

func runCrashFailover(seed int64, mode repMode) (*rep, error) {
	r := newRep()
	root := mode.spans.begin("crash-failover", -1)
	mem := startMem()
	// Set-up: build the sweep config and run its reference service (the
	// run the sweep itself starts from) to learn the serving-phase
	// primitive spans, from which the expected replay count follows.
	var setups []cost
	var cfg torture.ServiceConfig
	var ref served
	refMode := mode
	refMode.profile = false // the profile covers the sweep
	for i := 0; i < warmups; i++ {
		id := mode.spans.begin("setup", root)
		m0 := markNow()
		cfg = crashFailoverConfig(seed)
		refCfg := cfg.Server
		refCfg.Liveness = true
		var err error
		ref, err = serveOnce(refCfg, refMode, "reference", id)
		mode.spans.end(id)
		if err != nil {
			mode.spans.end(root)
			return nil, fmt.Errorf("crash-failover reference run: %w", err)
		}
		setups = append(setups, m0.to(markNow()))
	}
	r.setup = medianCost(setups)
	r.violations("crash-failover reference run", len(ref.res.Violations))
	r.serviceLayers(ref)
	r.sim["sim_mops"] = ref.res.ThroughputOps / 1e6
	if ref.res.Trace != nil {
		r.sim["sim_pause_max_us"] = float64(servingPauseMaxPS(ref.res.Trace)) / 1e6
	}
	want := expectedReplays(ref.svc.PrimitiveSpans(), len(cfg.Policies))
	if mode.simOnly {
		mem.finish(r)
		mode.spans.end(root)
		return r, nil
	}

	id := mode.spans.begin("torture.ServiceSweep", root)
	var stop func() []byte
	if mode.profile {
		stop = startProfile()
	}
	m0 := markNow()
	res, err := torture.ServiceSweep(cfg)
	r.run = m0.to(markNow())
	if stop != nil {
		r.cpuProfile = stop()
	}
	mode.spans.end(id)
	mem.finish(r)
	mode.spans.end(root)
	if err != nil {
		return nil, fmt.Errorf("crash-failover sweep: %w", err)
	}
	r.attempted = res.Replays
	r.violations("crash-failover sweep", len(res.Violations))
	r.check(res.Replays == want, "crash-failover: %d replays, want %d", res.Replays, want)
	r.fingerprint = fmt.Sprintf("replays=%d points=%v violations=%d", res.Replays, res.Points, len(res.Violations))
	r.layer["torture.replays"] = float64(res.Replays)
	if res.Replays > 0 {
		r.layer["torture.replay_ms"] = r.run.wall * 1e3 / float64(res.Replays)
		r.layer["torture.alloc_mb_per_replay"] = float64(r.allocBytes) / 1e6 / float64(res.Replays)
	}
	return r, nil
}

// expectedReplays mirrors the sweep's default stride: each shard's span
// is strided so about 64 crash points land inside it, and every point is
// replayed once per crash policy.
func expectedReplays(spans [][2]int64, policies int) int {
	n := 0
	for _, sp := range spans {
		lo, hi := sp[0], sp[1]
		stride := (hi - lo) / 64
		if stride < 1 {
			stride = 1
		}
		for k := lo + 1; k < hi; k += stride {
			n++
		}
	}
	return n * policies
}
