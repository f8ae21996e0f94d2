package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"xcache/internal/addrcache"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/dasx"
	"xcache/internal/dsa/graphpulse"
	"xcache/internal/dsa/spgemm"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/exp"
	"xcache/internal/exp/runner"
	"xcache/internal/graph"
	"xcache/internal/hashidx"
	"xcache/internal/hier"
	"xcache/internal/mem"
	"xcache/internal/program"
	"xcache/internal/serve"
	"xcache/internal/sim"
	"xcache/internal/sparse"
	"xcache/internal/stats"
)

var workloadNames = []string{"sweep-xcache", "sweep-addr", "serve-skew", "coh-rw"}

// newWorkload builds a named workload's inputs for seed. short shrinks
// every workload to a smoke test (the benchmark's own tests use it).
func newWorkload(name string, seed int64, short bool) (workload, error) {
	switch name {
	case "sweep-xcache":
		return newSweep(seed, short, func(k dsa.Kind) bool { return k == dsa.KindXCache }), nil
	case "sweep-addr":
		return newSweep(seed, short, func(k dsa.Kind) bool { return k != dsa.KindXCache }), nil
	case "serve-skew":
		return newServe(seed, short)
	case "coh-rw":
		ops := 40_000
		if short {
			ops = 2_000
		}
		return &cohLoad{seed: seed, ops: ops}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// reseed maps the benchmark seed onto a generator's pinned seed: seed 0
// keeps the pinned inputs, any other seed gives another input set.
func reseed(pinned, seed int64) int64 {
	if seed == 0 {
		return pinned
	}
	return pinned + seed*1_000_003
}

// kernelCounts adds the DRAM, controller and queue counts of every
// component registered on k.
func kernelCounts(c map[string]float64, k *sim.Kernel) {
	var ds dram.Stats
	var cs ctrl.Stats
	var l2u stats.Histogram
	for _, comp := range k.Components() {
		switch v := comp.(type) {
		case *dram.DRAM:
			s := v.Stats()
			ds.Reads += s.Reads
			ds.Writes += s.Writes
			ds.RowHits += s.RowHits
			ds.RowMisses += s.RowMisses
			ds.TotalLatency += s.TotalLatency
		case *ctrl.Controller:
			s := v.Stats()
			cs.Hits += s.Hits
			cs.Misses += s.Misses
			cs.L2USum += s.L2USum
			cs.L2UCount += s.L2UCount
			l2u.Merge(&s.L2UHist)
		}
	}
	var pushes uint64
	for _, q := range k.Queues() {
		pushes += q.Pushes()
	}
	cycles := float64(k.Cycle())
	c["dram.accesses_per_kcycle"] = ratio(float64(ds.Accesses())*1000, cycles)
	c["dram.row_hit_rate"] = ratio(float64(ds.RowHits), float64(ds.RowHits+ds.RowMisses))
	c["dram.avg_latency_cycles"] = ds.AvgLatency()
	c["ctrl.hit_rate"] = cs.HitRate()
	c["ctrl.avg_load_to_use_cycles"] = cs.AvgLoadToUse()
	c["ctrl.l2u_p99_cycles"] = float64(l2u.Percentile(0.99))
	c["sim.queue_pushes_per_cycle"] = ratio(float64(pushes), cycles)
}

// --- sweep-xcache, sweep-addr: cells of the Fig 14 sweep ---

// sweepScale is the Fig 14 scale whose DRAM counts BENCH_1.json records;
// short runs use a far smaller workload.
const (
	sweepScale      = 25
	shortSweepScale = 400
)

// sweep runs a subset of the Fig 14 cells serially, each on a fresh
// simulator, with no run cache in front of them.
type sweep struct {
	cells  []runner.Spec
	seed   int64
	expect map[string]uint64 // DRAM accesses per cell; nil unless the inputs are the pinned ones
}

func newSweep(seed int64, short bool, keep func(dsa.Kind) bool) *sweep {
	scale := sweepScale
	if short {
		scale = shortSweepScale
	}
	w := &sweep{seed: seed}
	for _, s := range exp.SweepSpecs(scale) {
		if keep(s.Kind) {
			w.cells = append(w.cells, s)
		}
	}
	if seed == 0 && !short {
		w.expect = fig14DRAM
	}
	return w
}

func cellKey(s runner.Spec) string { return fmt.Sprintf("%s/%s[%s]", s.DSA, s.Workload, s.Kind) }

// runsController reports whether a cell's on-chip store is a ctrl.Controller:
// every X-Cache cell, and the hardwired baselines of SpArch, Gamma and
// GraphPulse (core.NewSystem with Hardwired set). The other cells walk
// through an address cache.
func runsController(s runner.Spec) bool {
	switch s.Kind {
	case dsa.KindXCache:
		return true
	case dsa.KindBaseline:
		return s.DSA == runner.DSASpArch || s.DSA == runner.DSAGamma || s.DSA == runner.DSAGraphPulse
	}
	return false
}

func (w *sweep) pass(pc *passCtx) (passStats, error) {
	st := passStats{counts: map[string]float64{}}
	var dramAcc, l2uP99 uint64
	var cHits, cAcc, cL2U, aHits, aAcc, aL2U float64
	for _, s := range w.cells {
		var run cellRun
		var err error
		pc.exclude(func() { run, err = prepareCell(s, w.seed, pc) })
		if err == nil && run == nil {
			err = fmt.Errorf("unsupported cell")
		}
		if pc.setupOnly && err == nil {
			continue
		}
		st.attempted++
		var res dsa.Result
		if err == nil {
			res, err = run()
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cellKey(s), err)
			continue
		}
		want, pinned := w.expect[cellKey(s)]
		switch {
		case !res.Checked:
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: output does not match the reference model\n", cellKey(s))
		case pinned && res.DRAMAccesses != want:
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d DRAM accesses, BENCH_1.json has %d\n", cellKey(s), res.DRAMAccesses, want)
		default:
			st.completed++
		}
		st.cycles += res.Cycles
		dramAcc += res.DRAMAccesses
		acc := float64(res.OnChipHits + res.OnChipMisses)
		if runsController(s) {
			cHits += float64(res.OnChipHits)
			cAcc += acc
			cL2U += res.AvgLoadToUse * acc
			l2uP99 = max(l2uP99, res.L2UP99)
		} else {
			aHits += float64(res.OnChipHits)
			aAcc += acc
			aL2U += res.AvgLoadToUse * acc
		}
	}
	c := st.counts
	c["dram.accesses_per_kcycle"] = ratio(float64(dramAcc)*1000, float64(st.cycles))
	if cAcc > 0 {
		c["ctrl.hit_rate"] = cHits / cAcc
		c["ctrl.avg_load_to_use_cycles"] = cL2U / cAcc
		c["ctrl.l2u_p99_cycles"] = float64(l2uP99)
	}
	if aAcc > 0 {
		c["addrcache.hit_rate"] = aHits / aAcc
		c["addrcache.avg_load_to_use_cycles"] = aL2U / aAcc
	}
	return st, nil
}

// cellRun is a Fig 14 cell's call into its DSA runner.
type cellRun func() (dsa.Result, error)

// prepareCell returns the runner call of one Fig 14 cell as
// runner.Spec.Execute makes it, with the workload generators reseeded.
// The DSA runners take workload parameters and build their inputs and
// system internally, so the set-up it times is a separate call of the
// same public constructors on the cell's parameters: the input generator
// and the system (see buildSystem). The caller excludes that copy from
// the pass's host figures.
func prepareCell(s runner.Spec, seed int64, pc *passCtx) (cellRun, error) {
	ws := s.WorkScale
	if ws == 0 {
		ws = s.Scale
	}
	switch s.DSA {
	case runner.DSAWidx, runner.DSADASX:
		var prof hashidx.Profile
		for _, p := range hashidx.TPCH() {
			if p.Name == s.Workload {
				prof = p
			}
		}
		if prof.Name == "" {
			return nil, fmt.Errorf("unknown workload %q", s.Workload)
		}
		w := widx.DefaultWork(prof, ws)
		w.Seed = reseed(w.Seed, seed)
		cfg, spec := core.WidxConfig(), widx.Spec(0)
		if s.DSA == runner.DSADASX {
			cfg, spec = core.DASXConfig(), dasx.Spec(0)
		}
		cfg = cfg.Scaled(runner.CacheDiv(s.Scale))
		var ix *hashidx.Index
		var trace []uint64
		pc.timeInputs(func() { ix, trace = widx.BuildWorkload(w, mem.NewImage()) })
		sys, err := buildSystem(pc, s, cfg, spec)
		if err != nil {
			return nil, err
		}
		pc.setupDone(ix, trace, sys)
		wopt, dopt := widx.Options{Cfg: cfg}, dasx.Options{Cfg: cfg}
		return map[string]map[dsa.Kind]cellRun{
			runner.DSAWidx: {
				dsa.KindXCache:   func() (dsa.Result, error) { return widx.RunXCache(w, wopt) },
				dsa.KindAddr:     func() (dsa.Result, error) { return widx.RunAddr(w, wopt) },
				dsa.KindBaseline: func() (dsa.Result, error) { return widx.RunBaseline(w, wopt) },
			},
			runner.DSADASX: {
				dsa.KindXCache:   func() (dsa.Result, error) { return dasx.RunXCache(w, dopt) },
				dsa.KindAddr:     func() (dsa.Result, error) { return dasx.RunAddr(w, dopt) },
				dsa.KindBaseline: func() (dsa.Result, error) { return dasx.RunBaseline(w, dopt) },
			},
		}[s.DSA][s.Kind], nil

	case runner.DSASpArch, runner.DSAGamma:
		alg, cfg := spgemm.SpArch, core.SpArchConfig()
		if s.DSA == runner.DSAGamma {
			alg, cfg = spgemm.Gamma, core.GammaConfig()
		}
		cfg = cfg.Scaled(runner.SpgemmDiv(s.Scale))
		w := spgemm.P2PGnutella31(ws)
		w.Seed = reseed(w.Seed, seed)
		var a, b *sparse.CSR
		pc.timeInputs(func() { a, b = sparse.RMAT(w.N, w.NNZ, w.Seed), sparse.RMAT(w.N, w.NNZ, w.Seed+1) })
		// The controller's response snapshot holds the longest B row.
		maxRow := 0
		for r := 0; r < b.Rows; r++ {
			maxRow = max(maxRow, b.RowNNZ(r))
		}
		scfg := cfg
		scfg.RespDataWords = 2*maxRow + 8
		sys, err := buildSystem(pc, s, scfg, spgemm.Spec())
		if err != nil {
			return nil, err
		}
		pc.setupDone(a, b, sys)
		opt := spgemm.Options{Cfg: cfg}
		return map[dsa.Kind]cellRun{
			dsa.KindXCache:   func() (dsa.Result, error) { return spgemm.RunXCache(alg, w, opt) },
			dsa.KindAddr:     func() (dsa.Result, error) { return spgemm.RunAddr(alg, w, opt) },
			dsa.KindBaseline: func() (dsa.Result, error) { return spgemm.RunBaseline(alg, w, opt) },
		}[s.Kind], nil

	case runner.DSAGraphPulse:
		var w graphpulse.Work
		switch s.Workload {
		case "p2p-08":
			w = graphpulse.P2PGnutella08(ws)
		case "web-Google":
			w = graphpulse.WebGoogle(ws)
		default:
			return nil, fmt.Errorf("unknown workload %q", s.Workload)
		}
		w.Seed = reseed(w.Seed, seed)
		cfg := core.GraphPulseConfig()
		if s.Scale > 1 || w.N > cfg.Sets {
			// runner's rule: keep the identity-indexed store collision-free.
			sets := 1024
			for sets < 2*w.N {
				sets *= 2
			}
			cfg.Sets, cfg.Sectors = sets, 2*sets
		}
		var g *graph.Graph
		pc.timeInputs(func() { g = graph.RMAT(w.N, w.E, w.Seed) })
		sys, err := buildSystem(pc, s, cfg, graphpulse.Spec())
		if err != nil {
			return nil, err
		}
		pc.setupDone(g, sys)
		opt := graphpulse.Options{Cfg: cfg}
		return map[dsa.Kind]cellRun{
			dsa.KindXCache:   func() (dsa.Result, error) { return graphpulse.RunXCache(w, opt) },
			dsa.KindAddr:     func() (dsa.Result, error) { return graphpulse.RunAddr(w, opt) },
			dsa.KindBaseline: func() (dsa.Result, error) { return graphpulse.RunBaseline(w, opt) },
		}[s.Kind], nil
	}
	return nil, fmt.Errorf("unsupported cell")
}

// buildSystem times the system a cell's runner builds: core.NewSystem
// for a cell that runs a controller, with walker compile + verify for a
// programmed X-Cache and Hardwired set for a hardwired baseline; for the
// other cells a kernel with a DRAM channel, an address cache at the
// runners' shared geometry for cfg (widx.AddrGeometry), and its walk
// engine.
func buildSystem(pc *passCtx, s runner.Spec, cfg core.Config, spec program.Spec) (any, error) {
	var sys any
	var err error
	pc.timeSystem(func() {
		if runsController(s) {
			cfg.Hardwired = s.Kind == dsa.KindBaseline
			sys, err = core.NewSystem(cfg, dram.DefaultConfig(), spec)
			return
		}
		k := sim.NewKernel()
		d := dram.New(k, dram.DefaultConfig(), mem.NewImage())
		c := addrcache.New(k, widx.AddrGeometry(cfg), d.Req, d.Resp, &energy.Counters{})
		sys = addrcache.NewEngine(k, addrcache.EngineConfig{Contexts: cfg.NumActive}, c)
	})
	return sys, err
}

// fig14DRAM is the DRAM access count of every X-Cache and address-cache
// cell of the Fig 14 sweep at scale 25 with the pinned inputs: the
// "DRAM accs X" and "DRAM accs addr" columns of BENCH_1.json's fig14 rows.
var fig14DRAM = map[string]uint64{
	"Widx/TPC-H-19[xcache]": 11482, "Widx/TPC-H-19[addr]": 14033,
	"DASX/TPC-H-19[xcache]": 11846, "DASX/TPC-H-19[addr]": 14033,
	"Widx/TPC-H-20[xcache]": 20428, "Widx/TPC-H-20[addr]": 24391,
	"DASX/TPC-H-20[xcache]": 21642, "DASX/TPC-H-20[addr]": 24391,
	"Widx/TPC-H-22[xcache]": 34153, "Widx/TPC-H-22[addr]": 38588,
	"DASX/TPC-H-22[xcache]": 36435, "DASX/TPC-H-22[addr]": 38588,
	"SpArch/p2p-31[xcache]": 4497, "SpArch/p2p-31[addr]": 4873,
	"Gamma/p2p-31[xcache]": 4506, "Gamma/p2p-31[addr]": 13268,
	"GraphPulse/p2p-08[xcache]": 579, "GraphPulse/p2p-08[addr]": 5122,
	"GraphPulse/web-Google[xcache]": 26367, "GraphPulse/web-Google[addr]": 132145,
}

// --- serve-skew: the multi-tenant service under overload ---

// serveTenants is the tenant mix: 48 best-effort tenants at priority 0
// and 16 latency-critical tenants at priority 7 under a p99 SLO, all on
// zipf-skewed keys.
const serveTenants = "48@0:rate=0.02,skew=1.2;16@7:rate=0.01,skew=1.2,slo=2048"

// serveLoad is one open-loop service run: arrivals follow simulated
// time, and the host drives every shard serially. Its input is the
// tenant specification; serve generates each arrival from Config.Seed.
type serveLoad struct{ cfg serve.Config }

func newServe(seed int64, short bool) (*serveLoad, error) {
	cfg := serve.Config{
		Shards: 4, Channels: 2, ChannelPolicy: serve.PolicyInterleave,
		Duration: 400_000, Overload: 1.5,
		Seed: uint64(reseed(1, seed)), TickWorkers: 1,
	}
	if short {
		cfg.Duration = 20_000
	}
	return &serveLoad{cfg: cfg}, nil
}

func (w *serveLoad) pass(pc *passCtx) (passStats, error) {
	cfg := w.cfg
	var err error
	pc.timeInputs(func() { cfg.Tenants, err = serve.ParseTenantSpec(serveTenants) })
	if err != nil {
		return passStats{}, err
	}
	var svc *serve.Service
	pc.timeSystem(func() { svc, err = serve.New(cfg) })
	if err != nil {
		return passStats{}, err
	}
	pc.setupDone(svc)
	if pc.setupOnly {
		return passStats{}, nil
	}
	rep, err := svc.Run()
	if err != nil {
		return passStats{}, fmt.Errorf("serve: %w", err)
	}
	t := rep.Totals
	if t.Generated != t.Completed+t.Shed+t.Failed {
		return passStats{}, fmt.Errorf("serve: %d generated != %d completed + %d shed + %d failed",
			t.Generated, t.Completed, t.Shed, t.Failed)
	}
	st := passStats{
		cycles: rep.Cycles, attempted: int(t.Generated), failed: int(t.Failed), completed: int(t.Completed),
		counts: map[string]float64{},
	}
	c := st.counts
	kernelCounts(c, svc.K)
	c["serve.p50_cycles"] = float64(rep.Latency.P50)
	c["serve.p99_cycles"] = float64(rep.Latency.P99)
	c["serve.retries"] = float64(t.Retries)
	c["serve.failed"] = float64(t.Failed)
	c["serve.p999_cycles"] = float64(rep.Latency.P999)
	for _, sh := range rep.Shards {
		c["serve.backpressure_cycles"] += float64(sh.BPCycles)
		c["serve.breaker_trips"] += float64(sh.BreakerTrips)
	}
	for _, ch := range rep.DRAM.Channels {
		c["serve.resteered"] += float64(ch.Resteered)
	}
	if rep.SLO != nil {
		for _, a := range rep.SLO.Attainment {
			if a.Priority == 7 {
				c["serve.slo_attainment_p7"] = a.Attainment
			}
		}
	}
	return st, nil
}

// --- coh-rw: the coherent hierarchy under read sharing and merges ---

const (
	cohPorts     = 4
	cohKeys      = 256
	cohMaxCycles = 50_000_000
)

// cohLoad runs closed-loop read/merge scripts on the coherent hierarchy
// without check.Attach, then reads every key back and compares it with
// the functional model.
type cohLoad struct {
	seed int64
	ops  int // per port
}

func (w *cohLoad) pass(pc *passCtx) (passStats, error) {
	var scripts [][]hier.ScriptOp
	var want []uint64
	var touches []int
	pc.timeInputs(func() { scripts, want, touches = cohScripts(w.seed, w.ops) })
	var s *hier.CohSystem
	var err error
	pc.timeSystem(func() {
		s, err = hier.NewCohSystem(hier.CohConfig{
			Ports:   cohPorts,
			L1:      hier.L1Config{Sets: 16, Ways: 4, WordsPerSector: 1}, // 64 entries
			NumKeys: cohKeys,
		})
		if err == nil {
			for k := range want {
				s.Seed(k, cohInit(k))
			}
		}
	})
	if err != nil {
		return passStats{}, err
	}
	pc.setupDone(scripts, want, s)
	if pc.setupOnly {
		return passStats{}, nil
	}

	if _, err := hier.RunScripts(s, nil, scripts, cohMaxCycles); err != nil {
		return passStats{}, fmt.Errorf("coh: %w", err)
	}
	readBack := make([]hier.ScriptOp, cohKeys)
	for k := range readBack {
		readBack[k] = hier.Ld(uint64(k))
	}
	got, err := hier.RunScripts(s, nil, [][]hier.ScriptOp{readBack}, cohMaxCycles)
	if err != nil {
		return passStats{}, fmt.Errorf("coh read-back: %w", err)
	}
	st := passStats{attempted: cohPorts * w.ops, counts: map[string]float64{}}
	for k, v := range got[0] {
		if v != want[k] {
			st.failed += touches[k]
		}
	}
	st.completed = st.attempted - st.failed
	st.cycles = uint64(s.K.Cycle())

	c := st.counts
	kernelCounts(c, s.K)
	// The directory's L2 requests carry no issue cycle, so the L2's
	// load-to-use figures are not latencies here.
	delete(c, "ctrl.avg_load_to_use_cycles")
	delete(c, "ctrl.l2u_p99_cycles")
	var hits, misses uint64
	for _, l1 := range s.Ports {
		ls := l1.Stats()
		hits += ls.Hits
		misses += ls.Misses
	}
	ds := s.Dir.Stats()
	c["hier.l1_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	c["hier.txns"] = float64(ds.Txns)
	c["hier.invals_per_op"] = ratio(float64(ds.Invals), float64(st.attempted))
	c["hier.writebacks"] = float64(ds.Writebacks)
	c["hier.back_invals"] = float64(ds.BackInvals)
	return st, nil
}

func cohInit(k int) uint64 { return uint64(1000 + 7*k) }

// cohScripts generates each port's script, ~75% loads and ~25% merges on
// zipf-skewed keys shared by all ports, so lines are both read-shared and
// migrated by writes. It also returns the functional model: each key's
// final value and how many ops touched it.
func cohScripts(seed int64, ops int) (scripts [][]hier.ScriptOp, want []uint64, touches []int) {
	rng := rand.New(rand.NewSource(reseed(7, seed)))
	zipf := rand.NewZipf(rng, 1.2, 1, cohKeys-1)
	perm := rng.Perm(cohKeys)
	want = make([]uint64, cohKeys)
	touches = make([]int, cohKeys)
	for k := range want {
		want[k] = cohInit(k)
	}
	scripts = make([][]hier.ScriptOp, cohPorts)
	for p := range scripts {
		script := make([]hier.ScriptOp, ops)
		for i := range script {
			k := uint64(perm[zipf.Uint64()])
			touches[k]++
			if rng.Intn(4) == 0 {
				v := uint64(1 + rng.Intn(15))
				want[k] += v
				script[i] = hier.Merge(k, v)
			} else {
				script[i] = hier.Ld(k)
			}
		}
		scripts[p] = script
	}
	return scripts, want, touches
}
