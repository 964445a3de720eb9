package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/sched"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// shardTrack matches the per-shard tracks of Result.Trace (replica
// tracks carry a further /replicaN suffix).
var shardTrack = regexp.MustCompile(`^serve/shard[0-9]+$`)

// traceSums condenses the simulated shard tracks of one traced run. The
// first ckpt-pause of every shard is the populate cut, which commits the
// whole initial key space; it is not serving work, so every pause and
// checkpoint figure below leaves it out.
type traceSums struct {
	servingPauses int
	pauseMaxPS    int64
	// barrierWaitPS is serving ckpt-pause time not covered by the pause's
	// direct children (the checkpoint or commit): the wait at the cut's
	// barrier for the slowest shard.
	barrierWaitPS int64
	// ckptPS is simulated time inside core's checkpoint work (stop-the-
	// world checkpoint, or pipeline steps, replay and commit).
	ckptPS    int64
	stepSpans int
	cowPS     int64
	counters  map[string]int64
}

func sumTrace(tr *obs.Trace) traceSums {
	ts := traceSums{counters: map[string]int64{}}
	for _, track := range tr.Tracks {
		if !shardTrack.MatchString(track.Label) {
			continue
		}
		for _, c := range track.Counters {
			ts.counters[c.Name] += c.Value
		}
		pop := -1
		for i, s := range track.Spans {
			if s.Name == "ckpt-pause" && (pop < 0 || s.Start < track.Spans[pop].Start) {
				pop = i
			}
		}
		inPop := func(s obs.Span) bool {
			return pop >= 0 && s.Start >= track.Spans[pop].Start && s.End <= track.Spans[pop].End
		}
		for i, s := range track.Spans {
			switch s.Name {
			case "ckpt-pause":
				if i == pop {
					continue
				}
				ts.servingPauses++
				if s.Ticks > ts.pauseMaxPS {
					ts.pauseMaxPS = s.Ticks
				}
				wait := s.Ticks
				for _, c := range track.Spans {
					if c.Depth == s.Depth+1 && c.Start >= s.Start && c.End <= s.End {
						wait -= c.Ticks
					}
				}
				ts.barrierWaitPS += wait
			case "checkpoint", "ckpt-step", "ckpt-replay", "ckpt-commit":
				if inPop(s) {
					continue
				}
				ts.ckptPS += s.Ticks
				if s.Name == "ckpt-step" {
					ts.stepSpans++
				}
			case "cow":
				ts.cowPS += s.Ticks
			}
		}
	}
	return ts
}

// servingPauseMaxPS is the longest serving-phase cut pause of any shard.
func servingPauseMaxPS(tr *obs.Trace) int64 { return sumTrace(tr).pauseMaxPS }

// simLayers derives the core, nvm and mpi metrics of one traced run.
// Device counters are recorded per cut and include the populate cut, so
// the counters of popOnly (the same service serving one read) are
// subtracted first; what remains is the serving phase.
func simLayers(layer map[string]float64, tr *obs.Trace, ops uint64, popOnly map[string]int64, userBytes int64) {
	ts := sumTrace(tr)
	cuts := float64(ts.servingPauses)
	if cuts == 0 {
		cuts = 1
	}
	ctr := func(name string) float64 { return float64(ts.counters[name] - popOnly[name]) }
	layer["core.ckpt_sim_us_per_cut"] = float64(ts.ckptPS) / 1e6 / cuts
	layer["core.cow_sim_us"] = float64(ts.cowPS) / 1e6
	layer["core.dirty_bytes_per_cut"] = ctr("ckpt/dirty_bytes") / cuts
	layer["core.cow_diff_segments"] = ctr("cow/diff_segments")
	layer["core.cow_full_segments"] = ctr("cow/full_segments")
	layer["core.step_quanta_per_cut"] = float64(ts.stepSpans) / cuts
	layer["nvm.sfences_per_cut"] = ctr("stats/sfences") / cuts
	if ops > 0 {
		layer["nvm.clwbs_per_op"] = ctr("stats/clwbs") / float64(ops)
	}
	if userBytes > 0 {
		layer["nvm.media_bytes_per_user_byte"] = ctr("stats/media_write_bytes") / float64(userBytes)
	}
	if persisted := ctr("stats/flushed_lines")*nvm.LineSize + ctr("stats/ntstore_bytes"); persisted > 0 {
		layer["nvm.write_amp_pct"] = ctr("stats/media_write_bytes") * 100 / persisted
	}
	layer["mpi.barrier_wait_sim_us"] = float64(ts.barrierWaitPS) / 1e6 / cuts
}

// populateOnly runs cfg's service serving a single read, so its trace
// counters are those of the populate cut plus one empty cut.
func populateOnly(cfg server.Config) (map[string]int64, error) {
	cfg.Ops = 1
	cfg.Mix = workload.YCSBC
	cfg.Measure = nil
	cfg.Migrations = nil
	cfg.Progress = nil
	cfg.Trace = true
	svc, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("populate-only run: %w", err)
	}
	res, err := svc.Run()
	if err != nil {
		return nil, fmt.Errorf("populate-only run: %w", err)
	}
	return sumTrace(res.Trace).counters, nil
}

// genProbe times cfg's client streams generated directly, exactly as
// server.New seeds them, and counts the bytes their writes carry (key
// plus value, 16 bytes per update, insert or read-modify-write).
func genProbe(cfg server.Config) (nsPerOp float64, userBytes int64) {
	var n int
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < 200*time.Millisecond; pass++ {
		gens := make([]*workload.Generator, cfg.Clients)
		for i := range gens {
			seed := sched.SeedFor(fmt.Sprintf("serve/%d/client/%d", cfg.Seed, i))
			gens[i] = workload.NewGenerator(cfg.Mix, cfg.Keys, i, cfg.Clients, seed)
		}
		for i := 0; i < cfg.Ops; i++ {
			op := gens[i%cfg.Clients].Next()
			if pass == 0 {
				switch op.Kind {
				case workload.OpUpdate, workload.OpInsert, workload.OpRMW:
					userBytes += 16
				}
			}
		}
		n += cfg.Ops
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), userBytes
}

// newDeviceMS is the median wall time of nvm.NewDevice at size bytes.
func newDeviceMS(size int) float64 {
	var ts []float64
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		nvm.NewDevice(size)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

// profPackages are the packages whose self-time share the traced run
// reports as prof.<name>_pct; runtime covers allocation and GC.
var profPackages = []string{"server", "pds", "core", "nvm", "mpi", "replica", "workload", "bitmap", "measure", "ring", "runtime"}

// profLayers reads the shares from the CPU profile at path; an empty
// path (profiling was unavailable) leaves them all 0.
func profLayers(layer map[string]float64, path string) error {
	for _, p := range profPackages {
		layer["prof."+p+"_pct"] = 0
	}
	if path == "" {
		return nil
	}
	shares, err := selfSharesByPackage(path)
	if err != nil {
		return err
	}
	for pkg, pct := range shares {
		name := strings.TrimPrefix(pkg, "libcrpm/internal/")
		if _, ok := layer["prof."+name+"_pct"]; ok {
			layer["prof."+name+"_pct"] += pct
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
