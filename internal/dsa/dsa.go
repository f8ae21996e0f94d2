// Package dsa defines the shared measurement vocabulary for the five
// domain-specific accelerators evaluated in the paper (Widx, DASX,
// GraphPulse, SpArch, Gamma) and the B+-tree extension (btreeidx). Each
// DSA subpackage provides up to three runners over the same workload:
//
//	RunXCache   — the DSA datapath in front of a programmed X-Cache;
//	RunAddr     — the same datapath over an address-tagged cache with an
//	              ideal (zero-decision-cost) walker, the paper's red bar;
//	RunBaseline — the original DSA's hardwired orchestration, the paper's
//	              black bar.
//
// A runner only builds its system and datapath: Run simulates it, checks
// it and measures it, so every runner shares one run path and reports
// the same counters the same way. All runners validate their functional
// output against a pure-Go reference before reporting numbers.
package dsa

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/sim"
)

// Kind distinguishes the three storage idioms under comparison.
type Kind string

// The comparison points of Fig 14.
const (
	KindXCache   Kind = "xcache"
	KindAddr     Kind = "addr"
	KindBaseline Kind = "baseline"
)

// Result is one simulation measurement.
type Result struct {
	DSA      string
	Workload string
	Kind     Kind

	Cycles        uint64
	DRAMAccesses  uint64
	DRAMReadWords uint64
	OnChipHits    uint64
	OnChipMisses  uint64
	HitRate       float64
	AvgLoadToUse  float64 // mean issue→response over all accesses
	HitLoadToUse  float64 // mean over on-chip hits only (meta-tag short-circuit)
	L2UP50        uint64  // median load-to-use (bucketed upper bound)
	L2UP99        uint64  // tail load-to-use
	Occupancy     uint64  // byte-cycles (Fig 7 metric)

	Energy energy.Breakdown

	// Checked is true when the run's functional output matched the
	// reference implementation.
	Checked bool

	// Hardening counters, nonzero only when the run was supervised by
	// internal/check with fault injection enabled: fills re-issued after
	// a response timeout, DRAM read responses the injector dropped, and
	// meta-tag entries invalidated by the parity scrub.
	FillRetries  uint64
	DroppedFills uint64
	ParityScrubs uint64
}

// Run simulates the system registered on k until done reports true,
// within a budget of max cycles, and measures it. cfg attaches the
// internal/check harness; nil runs unsupervised with plain RunUntil
// stepping. An abort or an exhausted budget returns a *check.Failure,
// and a trap the controller latched returns its *ctrl.Trap.
//
// The measurement comes from the components registered on k: DRAM
// counts sum over every channel, on-chip counters and latencies come
// from the controller when there is one and from the address cache and
// its walk engine otherwise, and energy from meter. The caller fills in
// DSA, Workload, Kind and Checked.
func Run(k *sim.Kernel, meter *energy.Counters, cfg *check.Config, done func() bool, max int) (Result, error) {
	if ok, rep := check.Run(check.Attach(k, cfg), k, done, max); !ok {
		return Result{}, rep.Failure()
	}
	r := Result{Cycles: uint64(k.Cycle()), Energy: meter.Energy(energy.DefaultParams())}
	var (
		c     *ctrl.Controller
		cache *addrcache.Cache
		eng   *addrcache.Engine
	)
	for _, comp := range k.Components() {
		switch v := comp.(type) {
		case *dram.DRAM:
			st := v.Stats()
			r.DRAMAccesses += st.Accesses()
			r.DRAMReadWords += st.WordsRead
			r.DroppedFills += st.DroppedResps
		case *ctrl.Controller:
			c = v
		case *addrcache.Cache:
			cache = v
		case *addrcache.Engine:
			eng = v
		}
	}
	switch {
	case c != nil:
		if t := c.Trap(); t != nil {
			return Result{}, t
		}
		st := c.Stats()
		r.OnChipHits, r.OnChipMisses, r.HitRate = st.Hits, st.Misses, st.HitRate()
		r.AvgLoadToUse, r.HitLoadToUse = st.AvgLoadToUse(), st.AvgHitLoadToUse()
		r.L2UP50, r.L2UP99 = st.L2UHist.Percentile(0.5), st.L2UHist.Percentile(0.99)
		r.Occupancy = st.OccupancyByteCycles
		r.FillRetries, r.ParityScrubs = st.FillRetries, st.ParityScrubs
	case cache != nil:
		st := cache.Stats()
		r.OnChipHits, r.OnChipMisses, r.HitRate = st.Hits, st.Misses, st.HitRate()
		if eng != nil {
			r.AvgLoadToUse = eng.Stats().AvgLoadToUse()
		}
	}
	return r, nil
}

// Speedup returns other.Cycles / r.Cycles (how much faster r is).
func (r Result) Speedup(other Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(r.Cycles)
}

// String summarizes for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s[%s]: %d cyc, %d DRAM, hit %.2f, l2u %.1f, %.0f pJ",
		r.DSA, r.Workload, r.Kind, r.Cycles, r.DRAMAccesses, r.HitRate,
		r.AvgLoadToUse, r.Energy.OnChip())
}
