package check_test

import (
	"errors"
	"fmt"
	"testing"

	"xcache/internal/check"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/exp/runner"
	"xcache/internal/hier"
	"xcache/internal/serve"
)

// TestCheckersMatchFullScanReferences runs the invariant audit and the
// watchdog beside the full-scan checkers they replaced (reference_test.go)
// on every kernel a run attaches a harness to, and requires the two to
// agree after every cycle: the same latched error text, the same
// last-progress cycle and the same STUCK set. A failing run's report must
// name the STUCK queues the reference names.
func TestCheckersMatchFullScanReferences(t *testing.T) {
	soak := func(name, dsaName string, f check.FaultConfig, seed uint64, fail bool) lockstepRun {
		s := runner.Spec{DSA: dsaName, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 400,
			Check: true, Faults: f, Seed: seed}
		if dsaName == runner.DSASpArch || dsaName == runner.DSAGamma {
			s.Workload = "p2p-31"
		}
		return lockstepRun{name: "soak/" + name, fail: fail, run: func() error {
			_, err := s.Execute()
			return err
		}}
	}
	serveRun := func(name string, cfg serve.Config) lockstepRun {
		return lockstepRun{name: "serve/" + name, run: func() error {
			s, err := serve.New(cfg)
			if err != nil {
				return err
			}
			_, err = s.Run()
			return err
		}}
	}
	runs := []lockstepRun{
		serveRun("determinism", serve.Config{
			Shards:   4,
			Tenants:  []serve.TenantGroup{{Count: 6, Rate: 0.04, Skew: 0.9}, {Count: 2, Priority: 4, Rate: 0.02}},
			Keys:     1 << 12,
			Duration: 15_000,
			Seed:     7,
			Faults:   check.FaultConfig{DropResp: 0.01, ClogQueue: 0.002},
		}),
		serveRun("chaos-42", serve.Config{
			Shards:   4,
			Channels: 2,
			Tenants: []serve.TenantGroup{
				{Count: 12, Priority: 0, Rate: 0.02, Skew: 1.1},
				{Count: 8, Priority: 3, Rate: 0.015, BurstLen: 1500, BurstOn: 0.3},
				{Count: 4, Priority: 7, Rate: 0.01, SLO: 6000},
			},
			Keys: 1 << 13, Duration: 40_000, Seed: 42, Overload: 1.5,
			Faults: check.FaultConfig{
				DropResp: 0.01, DelayResp: 0.02, DelayMax: 128, ClogQueue: 0.002, FlipBit: 0.0005,
				Channels: []check.ChannelFault{
					{Channel: 0, Mode: check.ChanBurst, Start: 5_000, Cycles: 3_000, Extra: 64},
					{Channel: 1, Mode: check.ChanOutage, Start: 15_000, Cycles: 5_000},
					{Channel: 1, Mode: check.ChanStall, Start: 32_000, Cycles: 1_500},
				},
			},
		}),
		serveRun("channel-outage", serve.Config{
			Shards:   4,
			Channels: 2,
			Tenants: []serve.TenantGroup{
				{Count: 16, Priority: 0, Rate: 0.02},
				{Count: 8, Priority: 7, Rate: 0.02, SLO: 6000},
			},
			Keys: 1 << 13, Duration: 60_000, Seed: 42, Overload: 1.5,
			Faults: check.FaultConfig{Channels: []check.ChannelFault{
				{Channel: 1, Mode: check.ChanOutage, Start: 20_000, Cycles: 8_000},
			}},
		}),
		// The checked cells of the short fault-matrix soak.
		soak("clean-checked", runner.DSAWidx, check.FaultConfig{}, 1, false),
		soak("drop-light", runner.DSAWidx, check.FaultConfig{DropResp: 2e-2}, 7, false),
		soak("drop-storm", runner.DSAWidx, check.FaultConfig{DropResp: 1}, 1, true),
		soak("wedge-no-retry", runner.DSAWidx, check.FaultConfig{DropResp: 0.3, FillTimeout: -1}, 1, true),
		soak("clog", runner.DSASpArch, check.FaultConfig{ClogQueue: 0.05}, 1, false),
		soak("clog-heavy", runner.DSAGamma, check.FaultConfig{ClogQueue: 0.2}, 7, false),
		{name: "wedge/drop-all-no-retry", fail: true, run: func() error {
			cfg := &check.Config{Watchdog: 2_000, Invariants: true, Seed: 1,
				Faults: check.FaultConfig{DropResp: 1, FillTimeout: -1}}
			_, err := widx.RunXCache(widxWork(), widx.Options{Check: cfg})
			return err
		}},
	}
	for _, l := range hier.LitmusTests() {
		l := l
		runs = append(runs, lockstepRun{name: "litmus/" + l.Name, run: func() error {
			_, err := hier.RunLitmus(l)
			return err
		}})
	}
	// TestCohSupervisedAbort's two aborts: a blown budget and a stall.
	for _, tc := range []struct {
		name      string
		cfg       *check.Config
		maxCycles int
	}{
		{"budget", check.Default(), 5},
		{"stall", &check.Config{Watchdog: 5, Invariants: true}, 200_000},
	} {
		tc := tc
		runs = append(runs, lockstepRun{name: "coh-abort/" + tc.name, fail: true, run: func() error {
			s, err := hier.NewCohSystem(hier.CohConfig{})
			if err != nil {
				return err
			}
			h := check.Attach(s.K, tc.cfg)
			_, err = hier.RunScripts(s, h, [][]hier.ScriptOp{{hier.Ld(0), hier.St(0, 60)}, {hier.Ld(0)}}, tc.maxCycles)
			return err
		}})
	}

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			stop := check.TrackLockstep()
			err := r.run()
			ls := stop()
			if len(ls) != 1 {
				t.Fatalf("%d harnesses attached, want 1 (run error %v)", len(ls), err)
			}
			l := ls[0]
			if l.HarnessAt >= 0 || l.RefAt >= 0 {
				t.Logf("invariant latched at cycle %d (harness), %d (reference)", l.HarnessAt, l.RefAt)
			}
			if l.Diverged != "" {
				t.Fatalf("checkers diverged from the full-scan references after %d cycles: %s", l.Cycles, l.Diverged)
			}
			if l.Cycles == 0 {
				t.Fatal("no cycle compared")
			}
			if (err != nil) != r.fail {
				t.Fatalf("run error %v, want failure %t", err, r.fail)
			}
			var cf *check.Failure
			if errors.As(err, &cf) && cf.Report != nil {
				got, want := fmt.Sprint(cf.Report.StuckQueues()), fmt.Sprint(l.RefStuck(cf.Report.Cycle))
				if got != want {
					t.Fatalf("report at cycle %d marks %s STUCK, the reference %s", cf.Report.Cycle, got, want)
				}
			}
		})
	}
}

type lockstepRun struct {
	name string
	fail bool // the run is expected to abort
	run  func() error
}
