package graphpulse

import (
	"math"
	"testing"

	"xcache/internal/core"
	"xcache/internal/dsa"
	"xcache/internal/energy"
)

func smallWork() Work {
	w := P2PGnutella08(10) // N=630, E=2100
	return w
}

func smallOpts() Options {
	cfg := core.GraphPulseConfig()
	cfg.Sets = 1024 // ≥ N, identity-indexed: collision-free event store
	cfg.Sectors = 2048
	return Options{Cfg: cfg, MaxCycles: 100_000_000}
}

func TestFixedPointRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1e-7, 0.25, -0.001, 0.9999} {
		if got := FromFix(ToFix(x)); math.Abs(got-x) > 1e-12 {
			t.Fatalf("fix round trip %v -> %v", x, got)
		}
	}
}

func TestXCachePageRankConverges(t *testing.T) {
	r, err := RunXCache(smallWork(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked {
		t.Fatal("ranks diverged from the delta-PageRank reference")
	}
	if r.HitRate <= 0.3 {
		t.Fatalf("event coalescing ineffective: hit rate %v", r.HitRate)
	}
	// The event store never walks DRAM; the only cache-side DRAM traffic
	// would be dirty spills, which a collision-free store avoids.
	if r.DRAMAccesses == 0 {
		t.Fatal("adjacency streaming missing")
	}
}

func TestBaselineComparable(t *testing.T) {
	w, opt := smallWork(), smallOpts()
	x, err := RunXCache(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Checked {
		t.Fatal("baseline diverged")
	}
	// Every insert of a newly active vertex runs the microcoded allocation
	// routine, so GraphPulse is the most alloc-heavy DSA; parity within
	// ~1.5x of the hardwired FSM is the expected envelope here.
	ratio := float64(x.Cycles) / float64(b.Cycles)
	if ratio > 1.5 {
		t.Errorf("programmable event store %.2fx slower than hardwired", ratio)
	}
}

func TestAddrScanPenalty(t *testing.T) {
	w, opt := smallWork(), smallOpts()
	x, err := RunXCache(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunAddr(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Checked {
		t.Fatal("addr variant diverged")
	}
	if x.Cycles >= a.Cycles {
		t.Errorf("X-Cache (%d cyc) not faster than dense-array scan (%d cyc)", x.Cycles, a.Cycles)
	}
}

func TestSSSPMinCoalescing(t *testing.T) {
	// Same event store, MIN merge operator: distances must equal BFS.
	r, err := RunSSSP(smallWork(), smallOpts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checked {
		t.Fatal("SSSP distances diverged from the BFS reference")
	}
	if r.HitRate <= 0 {
		t.Fatal("no relaxations coalesced in the event store")
	}
}

func TestSSSPDifferentSources(t *testing.T) {
	for _, src := range []int{1, 17, 100} {
		r, err := RunSSSP(smallWork(), smallOpts(), src)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if !r.Checked {
			t.Fatalf("src %d: distances wrong", src)
		}
	}
}

// TestSSSPResultPinned pins RunSSSP's whole measurement for two sources.
// No golden figure covers SSSP, so this keeps its cycle, traffic, latency
// and energy accounting from drifting.
func TestSSSPResultPinned(t *testing.T) {
	want := map[int]dsa.Result{
		0: {DSA: "GraphPulse", Workload: "p2p-08/sssp", Kind: dsa.KindXCache,
			Cycles: 1186, DRAMAccesses: 70, DRAMReadWords: 3113,
			OnChipHits: 1304, OnChipMisses: 650, HitRate: 0.6673490276356192,
			AvgLoadToUse: 9.009969325153374, HitLoadToUse: 9.009969325153374,
			L2UP50: 7, L2UP99: 31, Occupancy: 321944,
			Energy: energy.Breakdown{DataRAM: 29164.8, TagRAM: 26343.9, RoutineRAM: 2340,
				Logic: 23.471999999999998, Registers: 1851.2},
			Checked: true},
		17: {DSA: "GraphPulse", Workload: "p2p-08/sssp", Kind: dsa.KindXCache,
			Cycles: 1300, DRAMAccesses: 75, DRAMReadWords: 3227,
			OnChipHits: 1267, OnChipMisses: 687, HitRate: 0.6484135107471852,
			AvgLoadToUse: 9.47119179163378, HitLoadToUse: 9.47119179163378,
			L2UP50: 7, L2UP99: 31, Occupancy: 338696,
			Energy: energy.Breakdown{DataRAM: 29579.199999999997, TagRAM: 27542.7, RoutineRAM: 2473.2,
				Logic: 22.805999999999997, Registers: 1956.576},
			Checked: true},
	}
	for src, w := range want {
		got, err := RunSSSP(smallWork(), smallOpts(), src)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if got != w {
			t.Errorf("src %d:\n got  %+v\n want %+v", src, got, w)
		}
	}
}
