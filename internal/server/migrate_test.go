package server

import (
	"errors"
	"testing"
)

// migCfg is the shared small-run base for migration tests.
func migCfg() Config {
	return Config{
		Shards:   2,
		Clients:  2,
		Ops:      6000,
		Keys:     2000,
		BatchOps: 256,
		Policy:   OpsPolicy{Every: 1024},
		Seed:     7,
	}
}

func runMig(t *testing.T, cfg Config) *Result {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSplitMigrationClean runs one live split and checks the full
// consistency surface: per-shard KV==shadow, exactly-once application,
// global ownership on the final ring, and the recorded migration stats.
func TestSplitMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("shard count %d after split, want 3", len(res.Shards))
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("recorded %d migrations, want 1", len(res.Migrations))
	}
	m := res.Migrations[0]
	if m.Kind != "split" || m.Src != 0 || m.Dst != 2 {
		t.Fatalf("migration %+v, want split 0>2", m)
	}
	if m.MovedKeys == 0 || m.SlotCount == 0 || m.FlipEpoch == 0 {
		t.Fatalf("empty migration accounting: %+v", m)
	}
	if m.FlipPS <= m.StartPS {
		t.Fatalf("flip at %d not after start %d", m.FlipPS, m.StartPS)
	}
	if res.Shards[2].Ops == 0 {
		t.Fatal("split-spawned shard acked no ops")
	}
}

// TestMoveMigrationClean moves half of shard 1's slots to shard 0.
func TestMoveMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateMove, Src: 1, Dst: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("shard count %d after move, want 2", len(res.Shards))
	}
	if res.Migrations[0].Kind != "move" {
		t.Fatalf("migration %+v", res.Migrations[0])
	}
}

// TestMergeMigrationClean merges shard 1 into shard 0; the source must
// retire (stop serving) once its post-flip deletions committed, and the
// run must still verify clean.
func TestMergeMigrationClean(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateMerge, Src: 1, Dst: 0, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	m := res.Migrations[0]
	if m.Kind != "merge" || m.Src != 1 || m.Dst != 0 {
		t.Fatalf("migration %+v, want merge 1>0", m)
	}
	// After the flip all traffic lands on shard 0.
	if res.Shards[0].Ops == 0 {
		t.Fatal("merge target acked no ops")
	}
}

// TestMigrationSequence chains a split and a merge in one run: grow to
// three shards, then fold the new shard back into shard 1.
func TestMigrationSequence(t *testing.T) {
	cfg := migCfg()
	cfg.Ops = 10000
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 4},
	}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("recorded %d migrations, want 2", len(res.Migrations))
	}
	if res.Migrations[0].Kind != "split" || res.Migrations[1].Kind != "merge" {
		t.Fatalf("migration order %+v", res.Migrations)
	}
	if res.Migrations[1].FlipEpoch <= res.Migrations[0].FlipEpoch {
		t.Fatalf("flip epochs not ordered: %d then %d",
			res.Migrations[0].FlipEpoch, res.Migrations[1].FlipEpoch)
	}
}

// TestMigrationForcedAtEnd drives migEndDrain's forced start and flip: a
// migration gated past the run's last policy cut must still start, ship
// and flip at close-out, on both cut paths. The flip rides the run's final
// cut, and the whole run verifies clean.
func TestMigrationForcedAtEnd(t *testing.T) {
	for _, budget := range []int{0, 64 << 10} {
		for _, spec := range []MigrateSpec{
			{Kind: MigrateSplit, Src: 0, AfterCuts: 1000},
			{Kind: MigrateMerge, Src: 1, Dst: 0, AfterCuts: 1000},
		} {
			cfg := migCfg()
			cfg.StepBudget = budget
			cfg.Migrations = []MigrateSpec{spec}
			res := runMig(t, cfg)
			if !res.OK() {
				t.Fatalf("budget %d %s: violations: %v", budget, spec.Kind, res.Violations)
			}
			if res.Cuts >= spec.AfterCuts {
				t.Fatalf("budget %d %s: %d cuts reach AfterCuts %d; the start is not forced", budget, spec.Kind, res.Cuts, spec.AfterCuts)
			}
			if len(res.Migrations) != 1 {
				t.Fatalf("budget %d %s: recorded %d migrations, want 1", budget, spec.Kind, len(res.Migrations))
			}
			if m := res.Migrations[0]; m.Kind != string(spec.Kind) || m.FlipEpoch != uint64(res.Cuts) {
				t.Fatalf("budget %d %s: migration %+v, want its flip on the final cut %d", budget, spec.Kind, m, res.Cuts)
			}
		}
	}
}

// TestMigrationIncrementalPipeline rides the flip on an incremental cut:
// the ring must flip at the commit transition of the quantum pipeline,
// not at a stop-the-world pause.
func TestMigrationIncrementalPipeline(t *testing.T) {
	cfg := migCfg()
	cfg.StepBudget = 64 << 10
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 1, AfterCuts: 2}}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("shard count %d, want 3", len(res.Shards))
	}
}

// TestMigrationDeterminism pins the determinism contract through a
// split+merge run: two executions of the same config produce identical
// results, including the migration accounting.
func TestMigrationDeterminism(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMove, Src: 2, Dst: 1, AfterCuts: 4},
	}
	a := runMig(t, cfg)
	b := runMig(t, cfg)
	if !a.OK() || !b.OK() {
		t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
	}
	if a.TotalOps != b.TotalOps || a.SimPS != b.SimPS || a.Cuts != b.Cuts {
		t.Fatalf("aggregate drift: ops %d/%d sim %d/%d cuts %d/%d",
			a.TotalOps, b.TotalOps, a.SimPS, b.SimPS, a.Cuts, b.Cuts)
	}
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("shard counts %d/%d", len(a.Shards), len(b.Shards))
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Fatalf("shard %d stats drift:\n%+v\n%+v", i, a.Shards[i], b.Shards[i])
		}
	}
	if len(a.Migrations) != len(b.Migrations) {
		t.Fatalf("migration counts %d/%d", len(a.Migrations), len(b.Migrations))
	}
	for i := range a.Migrations {
		am, bm := a.Migrations[i], b.Migrations[i]
		if am != bm {
			t.Fatalf("migration %d drift:\n%+v\n%+v", i, am, bm)
		}
	}
}

// TestMigrationFreeRunsUnchanged pins the gating: a migration-free config
// on the ring-backed router produces the exact result of the pre-ring
// service (the ring's boot layout is modulo-identical, and no migration
// code path may touch clocks or devices).
func TestMigrationFreeRunsUnchanged(t *testing.T) {
	cfg := migCfg()
	base := runMig(t, cfg)
	if !base.OK() {
		t.Fatalf("violations: %v", base.Violations)
	}
	// A second service instance must reproduce it exactly.
	again := runMig(t, cfg)
	for i := range base.Shards {
		if base.Shards[i] != again.Shards[i] {
			t.Fatalf("shard %d drift:\n%+v\n%+v", i, base.Shards[i], again.Shards[i])
		}
	}
	if base.Migrations != nil {
		t.Fatalf("migration-free run recorded migrations: %+v", base.Migrations)
	}
}

// TestAutoSplit drives the hot-shard trigger: with a permissive hot
// factor the service must grow itself to the cap, and stay consistent.
func TestAutoSplit(t *testing.T) {
	cfg := migCfg()
	cfg.Ops = 12000
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 4, HotFactor: 0.5}
	res := runMig(t, cfg)
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("autosplit grew to %d shards, want 4", len(res.Shards))
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("autosplit recorded %d migrations, want 2", len(res.Migrations))
	}
	for _, m := range res.Migrations {
		if m.Kind != "split" {
			t.Fatalf("autosplit produced %+v", m)
		}
	}
}

// TestMigrateConfigRejects pins the config error surface.
func TestMigrateConfigRejects(t *testing.T) {
	cfg := migCfg()
	cfg.Replicas = 1
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0}}
	if _, err := New(cfg); !errors.Is(err, ErrMigrateReplicas) {
		t.Fatalf("replicas+migrations: got %v, want ErrMigrateReplicas", err)
	}

	cfg = migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: "rebalance", Src: 0}}
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown kind accepted")
	}

	cfg = migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0}}
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 4}
	if _, err := New(cfg); err == nil {
		t.Fatal("migrations+autosplit accepted")
	}

	cfg = migCfg()
	cfg.AutoSplit = AutoSplitSpec{MaxShards: 1}
	if _, err := New(cfg); err == nil {
		t.Fatal("autosplit cap below boot shards accepted")
	}
}

// TestMigrationCrashRecovery crashes the source shard at a fixed point
// mid-run while a split is in flight and checks coordinated recovery:
// every member lands on one global epoch, each image matches its snapshot
// at that epoch, and the landing ring routes liveness probes.
func TestMigrationCrashRecovery(t *testing.T) {
	for _, at := range []int64{2000, 6000, 12000} {
		cfg := migCfg()
		cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
		cfg.Liveness = true
		cfg.Crash = &CrashSpec{Shard: 0, At: at}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Run()
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		if !res.OK() {
			t.Fatalf("at=%d: violations: %v", at, res.Violations)
		}
		if !res.Recovered {
			t.Fatalf("at=%d: not recovered", at)
		}
	}
}

// TestMigrationSpansRecorded checks the torture sweep's input: a clean
// migratory run reports per-phase primitive windows for both ends of the
// transfer.
func TestMigrationSpansRecorded(t *testing.T) {
	cfg := migCfg()
	cfg.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	spans := svc.MigrationSpans()
	phases := map[string]bool{}
	shards := map[int]bool{}
	for _, sp := range spans {
		if sp.Hi < sp.Lo {
			t.Fatalf("inverted span %+v", sp)
		}
		phases[sp.Phase] = true
		shards[sp.Shard] = true
	}
	for _, want := range []string{"transfer", "catchup", "flip"} {
		if !phases[want] {
			t.Fatalf("no %q span recorded (spans: %+v)", want, spans)
		}
	}
	if !shards[0] || !shards[2] {
		t.Fatalf("spans missing a participant: %+v", spans)
	}
}
