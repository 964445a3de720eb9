package server

import (
	"reflect"
	"strings"
	"testing"

	"libcrpm/internal/nvm"
)

// devices lists every device a run built: each shard primary (joined and
// retired ranks included) and each secondary.
func (s *Service) devices() []*nvm.Device {
	var devs []*nvm.Device
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		devs = append(devs, sh.dev)
		if sh.reps != nil {
			for i := 0; i < sh.reps.Len(); i++ {
				devs = append(devs, sh.reps.Sec(i).Container().Device())
			}
		}
	}
	return devs
}

// isReleased reports whether a device is poisoned by Release.
func isReleased(d *nvm.Device) (released bool) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		released = strings.Contains(msg, "released")
	}()
	d.Working()
	return false
}

// TestServiceRelease: Service.Release returns every device of a finished
// run — after a clean run, a kill-primary failover, a split and merge
// (joined and retired ranks), and a Run that returned an error — and a
// second call is a no-op. A rerun of the same config, now building its
// devices from the recycled memory, reproduces the first Result exactly.
func TestServiceRelease(t *testing.T) {
	failCfg := func() Config {
		cfg := replCfg()
		cfg.Ops = 2000
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		ref.Release()
		sp := ref.PrimitiveSpans()[1]
		cfg.Crash = &CrashSpec{Shard: 1, At: sp[0] + (sp[1]-sp[0])/2}
		cfg.Liveness = true
		return cfg
	}
	migrate := migCfg()
	migrate.Ops = 10000
	migrate.Migrations = []MigrateSpec{
		{Kind: MigrateSplit, Src: 0, AfterCuts: 2},
		{Kind: MigrateMerge, Src: 2, Dst: 1, AfterCuts: 4},
	}
	never := smallCfg()
	never.Crash = &CrashSpec{Shard: 0, At: 1 << 40}

	for _, tc := range []struct {
		name    string
		cfg     Config
		devices int
		wantErr bool
	}{
		{"clean", replCfg(), 4 * 3, false},
		{"failover", failCfg(), 4 * 3, false},
		{"split-merge", migrate, 3, false},
		{"run-error", never, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Service, *Result) {
				svc, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := svc.Run()
				if (err != nil) != tc.wantErr {
					t.Fatalf("Run error %v, want error %v", err, tc.wantErr)
				}
				if res != nil && !res.OK() {
					t.Fatalf("%d violations, first: %v", len(res.Violations), res.Violations[0])
				}
				return svc, res
			}
			svc, first := run()
			if tc.name == "failover" && !first.FailedOver {
				t.Fatal("crash point did not exercise failover")
			}
			devs := svc.devices()
			if len(devs) != tc.devices {
				t.Fatalf("run built %d devices, want %d", len(devs), tc.devices)
			}
			spans := svc.PrimitiveSpans()
			svc.Release()
			svc.Release() // no-op
			for i, d := range devs {
				if !isReleased(d) {
					t.Fatalf("device %d of %d still live after Release", i, len(devs))
				}
			}
			if !reflect.DeepEqual(svc.PrimitiveSpans(), spans) {
				t.Fatal("PrimitiveSpans changed across Release")
			}
			again, second := run()
			defer again.Release()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("rerun on recycled devices differs:\n%+v\nvs\n%+v", first, second)
			}
		})
	}
}
