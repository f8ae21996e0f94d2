package serve

import (
	"encoding/json"
	"testing"

	"xcache/internal/check"
)

// chaosConfig is the full-load, full-fault-cocktail soak configuration:
// bursty skewed multi-priority tenants (the top priority SLO-governed)
// at 1.5x overload over 4 shards and 2 DRAM channels, with dropped and
// delayed DRAM responses, clogged controller queues, meta-tag bit flips,
// and a channel-outage cocktail (burst latency, a hard outage, and an
// issue stall) all injected from the run seed.
func chaosConfig(seed uint64) Config {
	return Config{
		Shards:   4,
		Channels: 2,
		Tenants: []TenantGroup{
			{Count: 12, Priority: 0, Rate: 0.02, Skew: 1.1},
			{Count: 8, Priority: 3, Rate: 0.015, BurstLen: 1500, BurstOn: 0.3},
			{Count: 4, Priority: 7, Rate: 0.01, SLO: 6000},
		},
		Keys:     1 << 13,
		Duration: 40_000,
		Seed:     seed,
		Overload: 1.5,
		Faults: check.FaultConfig{
			DropResp:  0.01,
			DelayResp: 0.02,
			DelayMax:  128,
			ClogQueue: 0.002,
			FlipBit:   0.0005,
			Channels: []check.ChannelFault{
				{Channel: 0, Mode: check.ChanBurst, Start: 5_000, Cycles: 3_000, Extra: 64},
				{Channel: 1, Mode: check.ChanOutage, Start: 15_000, Cycles: 5_000},
				{Channel: 1, Mode: check.ChanStall, Start: 32_000, Cycles: 1_500},
			},
		},
	}
}

// TestChaosSoak is the deterministic chaos soak the issue pins: seeded
// faults under full load, and the service must stay live (no watchdog
// bark, no overflow, no invariant violation — any of those fails Run),
// keep the conservation ledger exact, actually exercise every fault
// class, match its golden, and produce a byte-identical stats JSON when
// re-run on the same seed.
func TestChaosSoak(t *testing.T) {
	r := run(t, chaosConfig(42))
	checkLedger(t, r)
	checkGolden(t, "chaos-42.golden.json", r)

	if r.Faults == nil {
		t.Fatal("no fault accounting in report")
	}
	if r.Faults.Drops == 0 || r.Faults.Delays == 0 || r.Faults.Clogs == 0 || r.Faults.Flips == 0 {
		t.Fatalf("a fault class never fired: %+v", *r.Faults)
	}
	if r.Faults.ChanFaults == 0 {
		t.Fatal("channel fault episodes never fired")
	}
	// The hard outage must have tripped the failover machinery, and the
	// channel must have been re-admitted before the end of the run.
	if r.Degraded == nil || r.Degraded.Quarantines == 0 {
		t.Fatal("channel outage never quarantined a channel")
	}
	if r.Degraded.EndedDegraded {
		t.Error("channel still quarantined at end of run — recovery failed")
	}
	if r.Degraded.Resteered == 0 {
		t.Error("quarantine without any re-steered traffic")
	}
	if r.SLO == nil {
		t.Fatal("governed tenants but no SLO report")
	}
	if r.Totals.Completed == 0 {
		t.Fatal("chaos run completed nothing")
	}
	// Graceful degradation under chaos: the service keeps serving. The
	// exact split between completed/shed/failed is seed-dependent, but
	// completions must dominate failures by an order of magnitude.
	if r.Totals.Failed*10 > r.Totals.Completed {
		t.Errorf("failed %d vs completed %d — not graceful", r.Totals.Failed, r.Totals.Completed)
	}
	// The recovery machinery must actually have worked for something to
	// complete under this cocktail.
	var fillRetries uint64
	for _, sh := range r.Shards {
		fillRetries += sh.FillRetries
	}
	if fillRetries == 0 {
		t.Error("drops injected but no fill retries — recovery path dead")
	}

	b1, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Same seed rerun: byte-identical.
	b2, err := json.Marshal(run(t, chaosConfig(42)))
	if err != nil {
		t.Fatalf("marshal rerun: %v", err)
	}
	if string(b1) != string(b2) {
		t.Error("same-seed chaos reruns produced different stats JSON")
	}
	// A different seed must not accidentally share the stream.
	b3, err := json.Marshal(run(t, chaosConfig(43)))
	if err != nil {
		t.Fatalf("marshal seed 43: %v", err)
	}
	if string(b1) == string(b3) {
		t.Error("different seeds produced identical runs")
	}
}

// TestChaosSeedSweep runs shorter soaks across several seeds so a
// seed-specific wedge cannot hide behind the pinned seed above.
func TestChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for seed := uint64(100); seed < 105; seed++ {
		cfg := chaosConfig(seed)
		cfg.Duration = 15_000
		r := run(t, cfg)
		checkLedger(t, r)
		if r.Totals.Completed == 0 {
			t.Errorf("seed %d: nothing completed", seed)
		}
	}
}
