// Package runner is the parallel deterministic sweep engine behind
// internal/exp: every table/figure entry point decomposes into
// independent Specs (DSA × workload × idiom × scale × overrides), the
// Runner executes them across a worker pool with per-run isolated
// sim.Kernel/dram/check instances, memoises outcomes (results and
// failures) in a run cache keyed by the canonical spec key, and merges
// results deterministically by spec order — output is byte-identical to
// serial execution regardless of worker count or completion order.
package runner

import (
	"fmt"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dsa"
	"xcache/internal/dsa/btreeidx"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/hashidx"
)

// DSA names accepted by Spec.DSA. They match the dsa.Result.DSA strings
// the runners report, so a Spec round-trips through its Result.
const (
	DSAWidx       = "Widx"
	DSADASX       = "DASX"
	DSASpArch     = "SpArch"
	DSAGamma      = "Gamma"
	DSAGraphPulse = "GraphPulse"
	DSABTreeIdx   = "BTreeIdx"
)

// Spec identifies one independent simulation run. It is pure data — two
// equal Specs always produce bit-identical Results — which is what makes
// the run cache and the determinism contract sound.
//
// Zero values mean "design point": DivMul 0 acts as 1, WorkScale 0
// follows Scale, Lookahead/NumActive/NumExe 0 keep the DSA defaults.
type Spec struct {
	DSA      string
	Kind     dsa.Kind
	Workload string // "TPC-H-19|20|22", "p2p-31", "p2p-08", "web-Google", "zipf"

	// Scale divides cache capacities (through each DSA's capacity
	// divisor rule); WorkScale divides the workload size and defaults to
	// Scale. They separate only where the evaluation scales a workload
	// further than its cache (web-Google in the Fig 14 sweep).
	Scale     int
	WorkScale int

	// Configuration overrides. DivMul multiplies the capacity divisor
	// (the Fig 7/17 cache-pressure sweeps).
	DivMul    int
	Mode      ctrl.ExecMode
	Exec      ctrl.ExecPath
	Hardwired bool
	Lookahead int
	NumActive int
	NumExe    int

	// Hardening. Check attaches the internal/check harness (watchdog +
	// invariants); Faults adds seeded fault injection driven by Seed.
	// Each run gets its own harness instance — nothing is shared.
	// Faults.Channels must be empty: only xcache-serve applies channel
	// episodes, and a DSA run would silently ignore them.
	Check  bool
	Faults check.FaultConfig
	Seed   uint64
}

// Key returns the canonical encoding of the spec: a fixed-order,
// self-delimiting rendering of every field. Equal specs have equal keys
// and distinct specs distinct keys. Probabilities print in the shortest
// form that parses back to the same float64, so no two rates alias; the
// channel episodes are rendered even though Execute rejects them, since
// the runner memoises failures under the key too.
func (s Spec) Key() string {
	f := s.Faults
	return fmt.Sprintf("%s/%s[%s] scale=%d work=%d div=%d mode=%d xp=%d hard=%t la=%d act=%d exe=%d chk=%t faults=%v,%v,%d,%v,%v,%d,[%s] seed=%d",
		s.DSA, s.Workload, s.Kind, s.Scale, s.workScale(), s.divMul(),
		s.Mode, s.Exec, s.Hardwired, s.Lookahead, s.NumActive, s.NumExe,
		s.Check, f.DropResp, f.DelayResp, f.DelayMax, f.ClogQueue, f.FlipBit,
		f.FillTimeout, check.FormatChannelFaults(f.Channels), s.Seed)
}

func (s Spec) workScale() int {
	if s.WorkScale > 0 {
		return s.WorkScale
	}
	return s.Scale
}

func (s Spec) divMul() int {
	if s.DivMul > 0 {
		return s.DivMul
	}
	return 1
}

// CacheDiv maps a workload scale to the cache-capacity divisor that
// keeps the working-set-to-capacity ratio of the paper's configuration
// for the hash-index DSAs (Widx, DASX).
func CacheDiv(scale int) int {
	d := scale / 3
	if d < 1 {
		d = 1
	}
	return d
}

// SpgemmDiv is the capacity divisor rule for the SpGEMM DSAs (SpArch,
// Gamma) and the B+-tree extension, whose hot working sets shrink faster
// than the hash indices'.
func SpgemmDiv(scale int) int {
	d := scale / 8
	if d < 1 {
		d = 1
	}
	return d
}

func (s Spec) checkConfig() *check.Config {
	if !s.Check && !s.Faults.Any() {
		return nil
	}
	cfg := check.Default()
	cfg.Faults = s.Faults
	cfg.Seed = s.Seed
	return cfg
}

func (s Spec) tpchProfile() (hashidx.Profile, error) {
	for _, p := range hashidx.TPCH() {
		if p.Name == s.Workload {
			return p, nil
		}
	}
	return hashidx.Profile{}, fmt.Errorf("runner: unknown %s workload %q", s.DSA, s.Workload)
}

// Execute materialises the spec into a workload plus options and runs it
// on a fresh, fully isolated simulation instance. It is safe to call
// from any number of goroutines concurrently.
func (s Spec) Execute() (dsa.Result, error) {
	if len(s.Faults.Channels) > 0 {
		return dsa.Result{}, fmt.Errorf("runner: %s applies no channel fault episodes (%s); only xcache-serve does",
			s.DSA, check.FormatChannelFaults(s.Faults.Channels))
	}
	switch s.DSA {
	case DSAWidx:
		p, err := s.tpchProfile()
		if err != nil {
			return dsa.Result{}, err
		}
		w := widx.DefaultWork(p, s.workScale())
		opt := widx.Options{
			Cfg:   core.WidxConfig().Scaled(CacheDiv(s.Scale) * s.divMul()),
			Check: s.checkConfig(),
		}
		s.applyCfg(&opt.Cfg)
		switch s.Kind {
		case dsa.KindXCache:
			return widx.RunXCache(w, opt)
		case dsa.KindAddr:
			return widx.RunAddr(w, opt)
		case dsa.KindBaseline:
			return widx.RunBaseline(w, opt)
		}

	case DSADASX:
		p, err := s.tpchProfile()
		if err != nil {
			return dsa.Result{}, err
		}
		w := widx.DefaultWork(p, s.workScale())
		opt := dasx.Options{
			Cfg:       core.DASXConfig().Scaled(CacheDiv(s.Scale) * s.divMul()),
			Lookahead: s.Lookahead,
			Check:     s.checkConfig(),
		}
		s.applyCfg(&opt.Cfg)
		switch s.Kind {
		case dsa.KindXCache:
			return dasx.RunXCache(w, opt)
		case dsa.KindAddr:
			return dasx.RunAddr(w, opt)
		case dsa.KindBaseline:
			return dasx.RunBaseline(w, opt)
		}

	case DSASpArch, DSAGamma:
		if s.Workload != "p2p-31" {
			return dsa.Result{}, fmt.Errorf("runner: unknown %s workload %q", s.DSA, s.Workload)
		}
		alg := spgemm.SpArch
		cfg := core.SpArchConfig()
		if s.DSA == DSAGamma {
			alg = spgemm.Gamma
			cfg = core.GammaConfig()
		}
		w := spgemm.P2PGnutella31(s.workScale())
		opt := spgemm.Options{
			Cfg:       cfg.Scaled(SpgemmDiv(s.Scale) * s.divMul()),
			Lookahead: s.Lookahead,
			Check:     s.checkConfig(),
		}
		s.applyCfg(&opt.Cfg)
		switch s.Kind {
		case dsa.KindXCache:
			return spgemm.RunXCache(alg, w, opt)
		case dsa.KindAddr:
			return spgemm.RunAddr(alg, w, opt)
		case dsa.KindBaseline:
			return spgemm.RunBaseline(alg, w, opt)
		}

	case DSAGraphPulse:
		var w graphpulse.Work
		switch s.Workload {
		case "p2p-08":
			w = graphpulse.P2PGnutella08(s.workScale())
		case "web-Google":
			w = graphpulse.WebGoogle(s.workScale())
		default:
			return dsa.Result{}, fmt.Errorf("runner: unknown %s workload %q", s.DSA, s.Workload)
		}
		cfg := core.GraphPulseConfig()
		if s.Scale > 1 || w.N > cfg.Sets {
			// Keep the collision-free identity-indexed store: sets ≥ 2N.
			sets := 1024
			for sets < 2*w.N {
				sets *= 2
			}
			cfg.Sets = sets
			cfg.Sectors = 2 * sets
		}
		opt := graphpulse.Options{Cfg: cfg, Check: s.checkConfig()}
		s.applyCfg(&opt.Cfg)
		switch s.Kind {
		case dsa.KindXCache:
			return graphpulse.RunXCache(w, opt)
		case dsa.KindAddr:
			return graphpulse.RunAddr(w, opt)
		case dsa.KindBaseline:
			return graphpulse.RunBaseline(w, opt)
		}

	case DSABTreeIdx:
		if s.Workload != "zipf" {
			return dsa.Result{}, fmt.Errorf("runner: unknown %s workload %q", s.DSA, s.Workload)
		}
		w := btreeidx.DefaultWork(s.workScale())
		opt := btreeidx.Options{
			Cfg:   btreeidx.Config().Scaled(SpgemmDiv(s.Scale) * s.divMul()),
			Check: s.checkConfig(),
		}
		s.applyCfg(&opt.Cfg)
		switch s.Kind {
		case dsa.KindXCache:
			return btreeidx.RunXCache(w, opt)
		case dsa.KindAddr:
			return btreeidx.RunAddr(w, opt)
		}

	default:
		return dsa.Result{}, fmt.Errorf("runner: unknown DSA %q", s.DSA)
	}
	return dsa.Result{}, fmt.Errorf("runner: %s does not support kind %q", s.DSA, s.Kind)
}

// applyCfg applies the config-level overrides shared by every DSA.
func (s Spec) applyCfg(cfg *core.Config) {
	cfg.Mode = s.Mode
	cfg.Exec = s.Exec
	cfg.Hardwired = s.Hardwired
	if s.NumActive > 0 {
		cfg.NumActive = s.NumActive
	}
	if s.NumExe > 0 {
		cfg.NumExe = s.NumExe
	}
}
