package exp

import (
	"fmt"
	"strings"
	"testing"

	"xcache/internal/dsa"
	"xcache/internal/exp/runner"
)

// testScale keeps unit-test sweeps to a couple of seconds while
// preserving the working-set-to-capacity regime.
const testScale = 100

// testRunner is shared by the whole test package: one content-addressed
// run cache, so points repeated across figure tests simulate once.
var testRunner = runner.New(0)

var sweepCache *Sweep

func sweep(t *testing.T) *Sweep {
	t.Helper()
	if sweepCache == nil {
		sw, err := RunSweep(testRunner, testScale)
		if err != nil {
			t.Fatal(err)
		}
		sweepCache = sw
	}
	return sweepCache
}

func TestSweepCoversAllDSAs(t *testing.T) {
	sw := sweep(t)
	// 3 queries × 2 hash DSAs × 3 kinds + 2 spgemm × 3 + 2 graphpulse
	// inputs × 3.
	if len(sw.Results) != 18+6+6 {
		t.Fatalf("sweep has %d results", len(sw.Results))
	}
	for _, r := range sw.Results {
		if !r.Checked {
			t.Errorf("%s/%s[%s] unchecked", r.DSA, r.Workload, r.Kind)
		}
		if r.Cycles == 0 {
			t.Errorf("%s/%s[%s] zero cycles", r.DSA, r.Workload, r.Kind)
		}
	}
	for _, name := range []string{"Widx", "DASX", "SpArch", "Gamma", "GraphPulse"} {
		found := false
		for _, r := range sw.Results {
			if r.DSA == name {
				found = true
			}
		}
		if !found {
			t.Errorf("DSA %s missing from sweep", name)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	out := Fig4(sweep(t))
	if out.Metrics["l2u_improvement_geomean"] <= 1.0 {
		t.Errorf("meta-tags did not improve load-to-use: %v", out.Metrics)
	}
	if len(out.Table.Rows) == 0 {
		t.Fatal("empty table")
	}
}

func TestFig14Shape(t *testing.T) {
	out := Fig14(sweep(t))
	m := out.Metrics
	// Paper: 1.7x over address caches. Accept a generous band at test scale.
	if m["speedup_vs_addr_geomean"] < 1.1 {
		t.Errorf("speedup vs addr %v below band", m["speedup_vs_addr_geomean"])
	}
	// Competitive with hardwired baselines (no big loss).
	if m["speedup_vs_baseline_geomean"] < 0.9 {
		t.Errorf("X-Cache loses to baselines overall: %v", m["speedup_vs_baseline_geomean"])
	}
	// Paper: memory accesses reduced 2-8x vs address-based caches. Our
	// address-cache baseline merges MSHRs and exploits block locality
	// aggressively, so the measured reduction is smaller; see
	// EXPERIMENTS.md for the per-workload numbers.
	if m["mem_reduction_geomean"] < 1.1 {
		t.Errorf("memory-access reduction %v below band", m["mem_reduction_geomean"])
	}
}

func TestFig15Shape(t *testing.T) {
	out := Fig15(sweep(t))
	if out.Metrics["addr_overhead_max"] <= 0.10 {
		t.Errorf("address-cache power overhead too small: %+v", out.Metrics)
	}
	// The time-independent invariant: X-Cache never costs more energy.
	if out.Metrics["addr_energy_overhead_min"] <= 0 {
		t.Errorf("some workload spent more energy on X-Cache than on the address cache: %+v", out.Metrics)
	}
}

func TestFig16Shape(t *testing.T) {
	out := Fig16(sweep(t))
	m := out.Metrics
	// Paper bands: data 66-89%, tags 1.5-6.6%, routine RAM <4.2%. Our
	// miss rates are higher than the paper's TPC-H runs (see
	// EXPERIMENTS.md), which shifts energy from the data port to tag
	// maintenance; these envelopes catch regressions in the same shape.
	if m["data_share_min"] < 0.40 {
		t.Errorf("data RAM share %v implausibly low", m["data_share_min"])
	}
	if m["tag_share_max"] > 0.40 {
		t.Errorf("tag share %v too high", m["tag_share_max"])
	}
	if m["routine_ram_share_max"] > 0.13 {
		t.Errorf("routine RAM share %v too high", m["routine_ram_share_max"])
	}
}

func TestFig7Shape(t *testing.T) {
	out, err := Fig7(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["max_thread_over_coroutine"] < 10 {
		t.Errorf("thread/coroutine occupancy ratio %v too small", out.Metrics)
	}
}

func TestFig17Shape(t *testing.T) {
	out, err := Fig17(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m["hit_rate_spread"] <= 0 {
		t.Errorf("capacity sweep did not move hit rate: %+v", m)
	}
	// Larger caches help X-Cache at least as much as they help Widx.
	if m["xcache_gain_largest_cache"] < 1.0 {
		t.Errorf("bigger cache slowed X-Cache: %+v", m)
	}
}

func TestFig18Shape(t *testing.T) {
	out, err := Fig18(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m["graphpulse_gain"] < 1.0 || m["widx_gain"] < 0.9 {
		t.Errorf("parallelism sweep regressed: %+v", m)
	}
	// Paper: GraphPulse benefits from parallelism far more than Widx.
	if m["graphpulse_gain"] < m["widx_gain"] {
		t.Errorf("GraphPulse gain %v below Widx gain %v", m["graphpulse_gain"], m["widx_gain"])
	}
}

func TestExtensionBTree(t *testing.T) {
	out, err := ExtensionBTree(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["btree_speedup"] <= 1.0 {
		t.Errorf("MXA B-tree did not beat the address baseline: %+v", out.Metrics)
	}
}

func TestStaticTables(t *testing.T) {
	for _, out := range []*Out{Table1(), Table2(), Table3(), Table4(), Fig19(), Fig20()} {
		s := out.Table.String()
		if len(s) < 50 {
			t.Errorf("%s: table suspiciously small:\n%s", out.ID, s)
		}
	}
	if !strings.Contains(Table3().Table.String(), "131072") {
		t.Error("Table 3 lost the GraphPulse geometry")
	}
	if Fig19().Metrics["ref_les"] != 6985 {
		t.Errorf("Fig 19 reference LEs drifted: %v", Fig19().Metrics)
	}
}

// TestSweepRejectsBrokenRuns: a cell that completed but did not match
// its reference model (Checked false) is kept out of Results, filed as a
// validation failure, and fails the strict sweep naming the cell.
func TestSweepRejectsBrokenRuns(t *testing.T) {
	specs := SweepSpecs(testScale)[:3]
	outs := make([]runner.Outcome, len(specs))
	for i, s := range specs {
		outs[i].Res = dsa.Result{DSA: s.DSA, Workload: s.Workload, Kind: s.Kind, Cycles: 100, Checked: i != 1}
	}
	broken := specs[1]
	sw, err := foldSweep(testScale, specs, outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 2 {
		t.Fatalf("%d results admitted, want the 2 checked ones", len(sw.Results))
	}
	if _, ok := sw.Get(broken.DSA, broken.Workload, broken.Kind); ok {
		t.Fatal("unchecked result admitted")
	}
	if len(sw.Failed) != 1 || sw.Failed[0].Fail != "validation" ||
		sw.Failed[0].DSA != broken.DSA || sw.Failed[0].Workload != broken.Workload || sw.Failed[0].Kind != broken.Kind {
		t.Fatalf("broken cell not filed as a validation failure: %+v", sw.Failed)
	}
	_, err = strict(foldSweep(testScale, specs, outs))
	cell := fmt.Sprintf("%s/%s[%s]", broken.DSA, broken.Workload, broken.Kind)
	if err == nil || !strings.Contains(err.Error(), cell) {
		t.Fatalf("strict sweep error %v does not name the broken cell %s", err, cell)
	}
}

func TestAblationProgrammability(t *testing.T) {
	out, err := AblationProgrammability(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	// Paper: no performance loss vs hardwired; alloc-heavy GraphPulse is
	// our worst case at ~1.4x (see EXPERIMENTS.md).
	if m["worst_slowdown"] > 1.6 {
		t.Errorf("programmability slowdown %v too high", m["worst_slowdown"])
	}
	// Paper: routine RAM <7% of energy.
	if m["worst_routine_ram_share"] > 0.13 {
		t.Errorf("routine RAM share %v too high", m["worst_routine_ram_share"])
	}
}

func TestAblationDesignChoices(t *testing.T) {
	out, err := AblationDesignChoices(testRunner, testScale)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m["dasx_preload_gain"] < 1.0 {
		t.Errorf("preload hurt DASX: %+v", m)
	}
	if m["thread_occupancy_ratio"] < 10 {
		t.Errorf("thread occupancy ratio %v too small", m)
	}
	if m["thread_slowdown"] < 1.0 {
		t.Errorf("blocking threads should not be faster: %+v", m)
	}
}
