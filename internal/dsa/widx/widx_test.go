package widx

import (
	"testing"

	"xcache/internal/addrcache"
	"xcache/internal/core"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/energy"
	"xcache/internal/hashidx"
	"xcache/internal/mem"
	"xcache/internal/sim"
)

func smallWork(p hashidx.Profile) Work {
	w := DefaultWork(p, 100) // 2000 keys, 8000 probes
	return w
}

func smallOpts() Options {
	// Cache ≪ working set, as in the paper's 100 GB configuration.
	return Options{Cfg: core.WidxConfig().Scaled(32), MaxCycles: 20_000_000}
}

func TestXCacheFunctional(t *testing.T) {
	for _, p := range hashidx.TPCH() {
		r, err := RunXCache(smallWork(p), smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !r.Checked {
			t.Fatalf("%s: functional validation failed", p.Name)
		}
		if r.HitRate <= 0.2 {
			t.Fatalf("%s: implausible hit rate %v", p.Name, r.HitRate)
		}
	}
}

func TestAddrAndBaselineFunctional(t *testing.T) {
	p := hashidx.TPCH()[2]
	w := smallWork(p)
	for _, run := range []func(Work, Options) (dsa.Result, error){RunAddr, RunBaseline} {
		r, err := run(w, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Checked {
			t.Fatalf("%s: functional validation failed", r.Kind)
		}
	}
}

// The headline shapes: X-Cache beats the address-tagged cache, beats the
// original Widx on string-keyed queries, and makes fewer DRAM accesses.
func TestXCacheBeatsAddrAndBaseline(t *testing.T) {
	p := hashidx.TPCH()[0] // TPC-H-19: 60-cycle string hash
	w := smallWork(p)
	opt := smallOpts()
	x, err := RunXCache(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunAddr(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if x.Cycles >= a.Cycles {
		t.Errorf("X-Cache (%d cyc) not faster than address cache (%d cyc)", x.Cycles, a.Cycles)
	}
	if x.Cycles >= b.Cycles {
		t.Errorf("X-Cache (%d cyc) not faster than Widx baseline (%d cyc)", x.Cycles, b.Cycles)
	}
	if x.DRAMAccesses >= a.DRAMAccesses {
		t.Errorf("X-Cache DRAM accesses %d not below address cache %d", x.DRAMAccesses, a.DRAMAccesses)
	}
	if x.AvgLoadToUse >= a.AvgLoadToUse {
		t.Errorf("X-Cache load-to-use %v not below address-tag %v", x.AvgLoadToUse, a.AvgLoadToUse)
	}
}

func TestSpecCompiles(t *testing.T) {
	for _, shift := range []uint{50, 55, 60} {
		if _, err := Spec(shift).Compile(); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
	}
}

// A pump cycle on which the engine's job queue is full must allocate
// nothing: the probe walk is built only once its push will succeed.
func TestFullJobQueueCycleAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	cache := addrcache.New(k, AddrGeometry(smallOpts().Cfg), d.Req, d.Resp, meter)
	eng := addrcache.NewEngine(k, addrcache.EngineConfig{}, cache)
	ix, trace := BuildWorkload(smallWork(hashidx.TPCH()[2]), img)
	pump := newProbePump(eng, meter, ix, trace, 0)

	pump.Tick(0) // fills the job queue
	if eng.Jobs.CanPush() || pump.cursor == 0 {
		t.Fatalf("job queue not full after the first tick (cursor %d)", pump.cursor)
	}
	issued := pump.cursor
	allocs := testing.AllocsPerRun(100, func() { pump.Tick(0) })
	if allocs != 0 {
		t.Fatalf("a tick with a full job queue made %v allocations, want 0", allocs)
	}
	if pump.cursor != issued {
		t.Fatalf("cursor moved from %d to %d with a full job queue", issued, pump.cursor)
	}
}
