// Command perfbench is the repository benchmark. It drives one named
// workload through the service's public entry points (server.New,
// Service.Run, torture.ServiceSweep and the Progress callbacks), times
// every call from outside, checks every output, and prints the metrics
// as one JSON object on the last line of standard output.
//
//	perfbench --workload read-zipf --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: medians over the
// repetitions that fit in --seconds, plus the simulated metrics, which
// are exact functions of the workload and seed. With --trace 1 it
// reports the per-layer metrics from one extra traced and CPU-profiled
// repetition, and writes its wall spans and simulated tracks as Chrome
// trace files under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"libcrpm/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of --trace 0 runs: every workload reports
// each of them, none is ever zero, and each varies with the seed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_mops", "Mops/s"},
}

// perLayer are the metrics of --trace 1 runs. A workload that does not
// exercise a layer reports its metrics as 0.
//
// The first seven are end-to-end by nature but fail the end-to-end
// rules: failed_frac is zero on a correct run (it also travels as the
// result's failed/attempted counts), sim_slo_mops exists on write-open
// only, the open-loop quantiles and the serving pause are bucket edges
// or constant commit pauses that repeat bit-for-bit across seeds on the
// pipeline workloads, and the wall times swing with the CPU time the
// host steals. Every --trace 0 run prints the ones its workload has.
var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"sim_pause_max_us", "us"},
	{"sim_open_p50_us", "us"},
	{"sim_open_p999_us", "us"},
	{"sim_slo_mops", "Mops/s"},
	{"wall_s", "s"},
	{"setup_wall_s", "s"},
	{"workload.gen_ns_per_op", "ns"},
	{"server.populate_s", "s"},
	{"server.serve_s", "s"},
	{"server.verify_s", "s"},
	{"server.cuts", "count"},
	{"server.alloc_mb_per_cut", "MB"},
	{"prof.server_pct", "%"},
	{"prof.pds_pct", "%"},
	{"core.ckpt_sim_us_per_cut", "us"},
	{"core.cow_sim_us", "us"},
	{"core.dirty_bytes_per_cut", "B"},
	{"core.cow_diff_segments", "count"},
	{"core.cow_full_segments", "count"},
	{"core.step_quanta_per_cut", "count"},
	{"prof.core_pct", "%"},
	{"nvm.sfences_per_cut", "count"},
	{"nvm.clwbs_per_op", "count"},
	{"nvm.media_bytes_per_user_byte", "ratio"},
	{"nvm.write_amp_pct", "%"},
	{"nvm.new_device_ms", "ms"},
	{"prof.nvm_pct", "%"},
	{"prof.bitmap_pct", "%"},
	{"mpi.barrier_wait_sim_us", "us"},
	{"prof.mpi_pct", "%"},
	{"measure.service_p999_us", "us"},
	{"measure.queue_gap_p999_us", "us"},
	{"measure.open_samples", "count"},
	{"measure.open_p999_us.r1mops", "us"},
	{"measure.open_p999_us.r2mops", "us"},
	{"measure.open_p999_us.r3mops", "us"},
	{"measure.open_p999_us.r4mops", "us"},
	{"measure.open_p999_us.r5mops", "us"},
	{"prof.measure_pct", "%"},
	{"torture.replays", "count"},
	{"torture.replay_ms", "ms"},
	{"torture.alloc_mb_per_replay", "MB"},
	{"prof.replica_pct", "%"},
	{"migrate.window_sim_ms", "ms"},
	{"migrate.moved_keys", "count"},
	{"migrate.catchup_ops", "count"},
	{"migrate.worst_interval_p99_us", "us"},
	{"prof.ring_pct", "%"},
	{"prof.workload_pct", "%"},
	{"prof.runtime_pct", "%"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.mallocs", "count"},
	{"trace_overhead_pct", "%"},
}

// traceDir receives the traced run's span and profile files, inside the
// build directory the launcher uses.
const traceDir = ".bench_build/perfbench"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: read-zipf, write-open, crash-failover or split-open")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	// One P. With more, the Go runtime hands every idle P to the garbage
	// collector's idle mark workers and spins threads looking for work,
	// so the CPU time of a run that mostly keeps one goroutine busy grows
	// with how idle the machine's other CPUs happen to be (10-35% here,
	// more with more CPUs). On one P the CPU time is the program's work.
	runtime.GOMAXPROCS(1)
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload. A reference repetition, traced but not
// timed, warms the process and supplies the simulated metrics; timed
// untraced repetitions follow until the time budget is spent. Every
// repetition must reproduce the reference's simulated outputs exactly.
func run(w workloadDef, seed int64, budget time.Duration, trace bool, log io.Writer) (*result, error) {
	ref, err := w.run(seed, repMode{trace: true, simOnly: true})
	if err != nil {
		return nil, err
	}
	fingerprint := ref.fingerprint
	out := &result{Attempted: ref.attempted, Failed: ref.failed, Metrics: map[string]metricValue{}}
	notes := append([]string(nil), ref.checkErrs...)

	if trace {
		// Half the budget times untraced repetitions, the base of the
		// tracing overhead; the traced repetition follows.
		budget /= 2
	}
	var timed []*rep
	start := time.Now()
	for {
		t0 := time.Now()
		r, err := w.run(seed, repMode{})
		if err != nil {
			return nil, err
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		notes = append(notes, r.checkErrs...)
		if fingerprint == "" {
			// The reference skipped the measured call; the first timed
			// repetition anchors the comparison instead.
			fingerprint = r.fingerprint
		}
		switch {
		case r.fingerprint != fingerprint:
			out.Failed++
			notes = append(notes, "simulated outputs differ from the reference repetition")
		case r.failed == 0:
			timed = append(timed, r)
		}
		if elapsed := time.Since(start); elapsed+time.Since(t0) > budget {
			break
		}
	}
	setup := medianCost(collectCost(timed, func(r *rep) cost { return r.setup }))
	runC := medianCost(collectCost(timed, func(r *rep) cost { return r.run }))
	// Wall time moves with the CPU time stolen from this machine's
	// virtual CPUs; process CPU time barely does, so the gated time
	// metrics are CPU seconds and the wall seconds are printed beside them.
	vals := map[string]float64{
		"setup_s":      setup.cpu,
		"cpu_s":        runC.cpu,
		"setup_wall_s": setup.wall,
		"wall_s":       runC.wall,
		"alloc_mb":     median(collect(timed, func(r *rep) float64 { return float64(r.allocBytes) / 1e6 })),
		"peak_rss_mb":  peakRSSMB(),
	}
	for k, v := range ref.sim {
		vals[k] = v
	}
	if !trace {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		fmt.Fprintf(log, "# %s seed %d: %d timed repetitions, %d attempted, %d failed (failed_frac %g)\n",
			w.name, seed, len(timed), out.Attempted, out.Failed, float64(out.Failed)/float64(max(out.Attempted, 1)))
		printMetrics(log, out.Metrics, vals)
		fmt.Fprintf(log, "# by repetition: setup_s %.4f, cpu_s %.4f, wall_s %.4f\n",
			collect(timed, func(r *rep) float64 { return r.setup.cpu }),
			collect(timed, func(r *rep) float64 { return r.run.cpu }),
			collect(timed, func(r *rep) float64 { return r.run.wall }))
	} else {
		layer, err := tracedRun(w, seed, fingerprint, runC.cpu, out)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			if _, ok := layer[k]; !ok {
				layer[k] = v
			}
		}
		layer["failed_frac"] = float64(out.Failed) / float64(max(out.Attempted, 1))
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
		fmt.Fprintf(log, "# %s seed %d: traced run after %d untraced repetitions, %d failed\n", w.name, seed, len(timed), out.Failed)
		printMetrics(log, out.Metrics, nil)
	}
	out.Correct = out.Failed == 0 && len(timed) > 0
	for _, n := range notes {
		fmt.Fprintf(log, "# check failed: %s\n", n)
	}
	return out, nil
}

// tracedRun repeats the workload once with simulated tracing, wall spans
// and a CPU profile, and derives the per-layer metrics.
func tracedRun(w workloadDef, seed int64, fingerprint string, untracedCPU float64, out *result) (map[string]float64, error) {
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
	spans := newSpanLog(runID)
	r, err := w.run(seed, repMode{trace: true, profile: true, spans: spans})
	if err != nil {
		return nil, err
	}
	out.Attempted += r.attempted
	out.Failed += r.failed
	if r.fingerprint != fingerprint {
		out.Failed++
	}
	layer := r.layer
	cfg := w.layerConfig(seed)
	nsPerOp, userBytes := genProbe(cfg)
	layer["workload.gen_ns_per_op"] = nsPerOp
	if r.simTrace != nil {
		popOnly, err := populateOnly(cfg)
		if err != nil {
			return nil, err
		}
		simLayers(layer, r.simTrace, r.simOps, popOnly, userBytes)
	}
	size, err := crashDeviceSize()
	if err != nil {
		return nil, err
	}
	layer["nvm.new_device_ms"] = newDeviceMS(size)
	layer["go.gc_cycles"] = float64(r.gcCycles)
	layer["go.mallocs"] = float64(r.mallocs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer["go.gc_cpu_frac"] = ms.GCCPUFraction
	if untracedCPU > 0 {
		layer["trace_overhead_pct"] = (r.run.cpu/untracedCPU - 1) * 100
	}
	if err := writeTraces(runID, spans, r); err != nil {
		return nil, err
	}
	profPath := ""
	if len(r.cpuProfile) > 0 {
		profPath = filepath.Join(traceDir, runID+".cpu.pprof")
	}
	if err := profLayers(layer, profPath); err != nil {
		return nil, err
	}
	return layer, nil
}

// writeTraces exports the wall spans beside the simulated tracks and the
// CPU profile of one traced run.
func writeTraces(runID string, spans *spanLog, r *rep) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, runID)
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return f.Close()
	}
	if err := write(base+".wall.json", spans.writeChrome); err != nil {
		return err
	}
	if r.simTrace != nil {
		if err := write(base+".sim.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, r.simTrace) }); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".cpu.pprof", r.cpuProfile, 0o644)
}

func collectCost(reps []*rep, f func(*rep) cost) []cost {
	out := make([]cost, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// printMetrics writes a human-readable table of the result's metrics,
// then of the extra metrics this workload measured outside the result.
// The extra rows carry every digit, so compare.py can compare the exact
// simulated ones seed by seed.
func printMetrics(w io.Writer, ms map[string]metricValue, extra map[string]float64) {
	for _, n := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for _, n := range sortedKeys(extra) {
		if _, ok := ms[n]; !ok {
			fmt.Fprintf(w, "%-34s %16s %s (not in the result)\n", n, strconv.FormatFloat(extra[n], 'g', -1, 64), units[n])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
