package torture

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

func serviceBase() server.Config {
	return server.Config{
		Shards:   3,
		Clients:  4,
		Mix:      workload.YCSBCrud, // exercises the full KV surface
		Ops:      500,
		Keys:     150,
		HeapSize: 1 << 20,
		Buckets:  1 << 9,
		BatchOps: 128,
		Policy:   server.OpsPolicy{Every: 160},
		Seed:     7,
	}
}

// TestServiceSweep is the acceptance sweep for the sharded service:
// crashes across the serving phase of multiple shards, under seeded and
// adversarial crash schedules, must always recover every shard to one
// global epoch with every pre-cut acked op intact — and the recovered
// service must keep serving.
func TestServiceSweep(t *testing.T) {
	cfg := ServiceConfig{
		Server:      serviceBase(),
		CrashShards: []int{0, 2},
		Policies:    append(StandardPolicies(7), AdversarialPolicy()),
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for combo, pts := range res.Points {
		if pts < 8 {
			t.Fatalf("combo %s tested only %d points", combo, pts)
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepIncremental points the same sweep at the incremental cut
// pipeline: under a pause policy most crash points land inside an in-flight
// cut — mid-flush, between commit and replay, or mid-lift — and every one
// must still recover to a consistent global epoch with all pre-cut acked
// ops intact.
func TestServiceSweepIncremental(t *testing.T) {
	srv := serviceBase()
	srv.Policy = server.NewPausePolicy(2 * time.Microsecond)
	cfg := ServiceConfig{
		Server:      srv,
		CrashShards: []int{0, 2},
		Policies:    append(StandardPolicies(7), AdversarialPolicy()),
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for combo, pts := range res.Points {
		if pts < 8 {
			t.Fatalf("combo %s tested only %d points", combo, pts)
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepKillPrimary is the acceptance sweep for failover: with
// every shard replicated, crashes strided across two shards' serving
// spans — under the pause policy, so many land inside in-flight
// incremental cuts — must always promote a secondary, converge every
// shard on one epoch, and lose or double-apply nothing acked across a
// cut, for each SLA spec in the matrix.
func TestServiceSweepKillPrimary(t *testing.T) {
	srv := serviceBase()
	srv.Replicas = 2
	srv.Policy = server.NewPausePolicy(2 * time.Microsecond)
	cfg := ServiceConfig{
		Server:      srv,
		CrashShards: []int{0, 2},
		Policies:    StandardPolicies(7),
		KillPrimary: true,
		SLAs:        []string{"mix", "strong", "bounded:1"},
	}
	res, err := ServiceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	for _, spec := range cfg.SLAs {
		for _, sh := range cfg.CrashShards {
			key := fmt.Sprintf("shard%d/%s/%s", sh, StandardPolicies(7)[0].Name, spec)
			if res.Points[key] < 8 {
				t.Fatalf("combo %s tested only %d points", key, res.Points[key])
			}
		}
	}
	if !res.OK() {
		t.Fatalf("%d violations (of %d replays), first: %v", len(res.Violations), res.Replays, res.Violations[0])
	}
}

// TestServiceSweepKillPrimaryValidation: the failover mode's config
// contract — no replicas means no kill-primary, and the SLA dimension
// exists only there.
func TestServiceSweepKillPrimaryValidation(t *testing.T) {
	cfg := ServiceConfig{Server: serviceBase(), KillPrimary: true}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("kill-primary without replicas should fail")
	}
	cfg = ServiceConfig{Server: serviceBase(), SLAs: []string{"mix"}}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("SLA dimension without kill-primary should fail")
	}
	srv := serviceBase()
	srv.Replicas = 1
	cfg = ServiceConfig{Server: srv, KillPrimary: true, SLAs: []string{"nope"}}
	if _, err := ServiceSweep(cfg); err == nil {
		t.Fatal("unparsable sweep SLA should fail")
	}
}

// TestServiceSweepDeterministicReport: the violation report (here: the
// pass/fail counters) is identical at any replay parallelism.
func TestServiceSweepDeterministicReport(t *testing.T) {
	base := ServiceConfig{
		Server:      serviceBase(),
		CrashShards: []int{1},
		Stride:      977, // a handful of points; this test is about report identity
	}
	serial, par := base, base
	serial.Parallel = 1
	par.Parallel = 8
	a, err := ServiceSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServiceSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replays != b.Replays || len(a.Violations) != len(b.Violations) {
		t.Fatalf("serial (%d replays, %d violations) != parallel (%d, %d)",
			a.Replays, len(a.Violations), b.Replays, len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			t.Fatalf("violation %d differs: %v vs %v", i, a.Violations[i], b.Violations[i])
		}
	}
	for k, v := range a.Points {
		if b.Points[k] != v {
			t.Fatalf("points %s: %d vs %d", k, v, b.Points[k])
		}
	}
}

// TestServiceSweepKillPrimaryDeterministicReport: the kill-primary
// report, promotions included, is byte-identical at replay parallelism
// 1 and 8 — the CI failover byte-identity gate.
func TestServiceSweepKillPrimaryDeterministicReport(t *testing.T) {
	srv := serviceBase()
	srv.Replicas = 2
	base := ServiceConfig{
		Server:      srv,
		CrashShards: []int{1},
		Stride:      977,
		KillPrimary: true,
		SLAs:        []string{"mix"},
	}
	serial, par := base, base
	serial.Parallel = 1
	par.Parallel = 8
	a, err := ServiceSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServiceSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serial and parallel kill-primary reports differ:\n%+v\nvs\n%+v", a, b)
	}
	if a.Replays == 0 {
		t.Fatal("sweep ran no replays")
	}
	if !a.OK() {
		t.Fatalf("%d violations, first: %v", len(a.Violations), a.Violations[0])
	}
}

// BenchmarkServiceReplay is the L6 rung of the performance ladder: one
// kill-primary crash-replay-recover-verify cycle at the geometry of the
// benchmark's crash-failover sweep (2 shards, 1 secondary each, 150 keys,
// 1 MiB heaps, pause:2µs cuts), crashing shard 0 mid-span under the
// seeded policy. Each iteration builds, serves, fails over, verifies and
// releases a whole service, so ns/op, B/op and allocs/op are per replay.
func BenchmarkServiceReplay(b *testing.B) {
	base := server.Config{
		Shards:   2,
		Clients:  4,
		Mix:      workload.YCSBCrud,
		Ops:      2000,
		Keys:     150,
		HeapSize: 1 << 20,
		Buckets:  1 << 9,
		BatchOps: 128,
		Policy:   server.NewPausePolicy(2 * time.Microsecond),
		Replicas: 1,
		Seed:     1,
		Liveness: true,
	}
	ref, err := server.New(base)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		b.Fatal(err)
	}
	ref.Release()
	span := ref.PrimitiveSpans()[0]
	at := span[0] + (span[1]-span[0])/2
	pol := StandardPolicies(base.Seed)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := serviceReplay(base, 0, pol, "", at, true); len(vs) != 0 {
			b.Fatalf("replay at %d: %v", at, vs[0])
		}
	}
}
