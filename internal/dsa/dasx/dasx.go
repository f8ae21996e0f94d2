// Package dasx reproduces the DASX DSA (ICS'15): a hardware data-structure
// iterator whose collector runs ahead of the compute unit, refilling an
// object cache in refill-compute-update rounds. We study the hash-table
// configuration on the same MonetDB/TPC-H probe workloads as Widx
// (§7.2). DASX's hashing is coupled with walking, so X-Cache's gains are
// larger than on Widx: a meta-tag hit skips hash, walk, and the
// round-barrier reload of the baseline's object cache.
package dasx

import (
	"fmt"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/hashidx"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Options configure a DASX run.
type Options struct {
	Cfg       core.Config // zero value → core.DASXConfig()
	MaxCycles int
	Lookahead int // collector preload distance (X-Cache runs)
	// Check attaches the hardening harness to the X-Cache run.
	Check *check.Config
}

const (
	roundSize  = 64 // objects per refill-compute-update round (baseline)
	computePer = 2  // compute cycles per object in the compute phase
)

func (o *Options) defaults() {
	if o.Cfg.Sets == 0 {
		o.Cfg = core.DASXConfig()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	if o.Lookahead == 0 {
		o.Lookahead = 64
	}
}

const preloadBit = uint64(1) << 40

// Spec is the DASX walker: the Widx hash-index walk plus negative
// caching — the collector records not-found objects as zero-sector
// entries so the compute stream's probe hits instead of re-walking the
// chain (DASX's collector "refills multiple objects; subsequent accesses
// are cache hits").
func Spec(shift uint) program.Spec {
	return program.Spec{
		Name:   "dasx",
		States: []string{"Meta", "Data"},
		Consts: map[string]int64{"HSHIFT": int64(shift)},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1
				allocm
				lde r4, e1
				mul r5, r1, r4
				shr r5, r5, HSHIFT
				shl r5, r5, 3
				lde r4, e0
				add r5, r4, r5
				enqfilli r5, 1
				state Meta
			`},
			{State: "Meta", Event: "Fill", Asm: `
				peek r5, 0
				bnz r5, walk
				li r6, 0
				update r6, r6      ; negative entry: zero sectors
				enqresp r6, OK
				halt Valid
			walk:
				enqfilli r5, 3
				state Data
			`},
			{State: "Data", Event: "Fill", Asm: `
				peek r6, 0
				beq r6, r1, match
				peek r5, 2
				bnz r5, chase
				li r6, 0
				update r6, r6      ; negative entry: zero sectors
				enqresp r6, OK
				halt Valid
			chase:
				enqfilli r5, 3
				state Data
			match:
				peek r6, 1
				allocdi r7, 1
				writed r7, r6
				li r8, 1
				update r7, r8
				enqresp r6, OK
				halt Valid
			`},
		},
	}
}

// collector drives the X-Cache: a preload stream Lookahead probes ahead
// of the compute stream. Preload responses are discarded; compute
// responses are validated.
type collector struct {
	c         *ctrl.Controller
	trace     []uint64
	ix        *hashidx.Index
	preCursor int
	cursor    int
	done      int
	lookahead int
	computeAt sim.Cycle
	ok        bool
}

func (dp *collector) Tick(cy sim.Cycle) {
	for {
		resp, popped := dp.c.RespQ.Pop()
		if !popped {
			break
		}
		if resp.ID&preloadBit != 0 {
			continue // decoupled preload: no consumer
		}
		dp.done++
		key := dp.trace[resp.ID]
		rid, present := dp.ix.RIDs[key]
		switch {
		case present && (resp.Status != program.StatusOK || resp.Words == 0 || resp.Value != rid):
			dp.ok = false
		case !present && !(resp.Status == program.StatusNotFound ||
			(resp.Status == program.StatusOK && resp.Words == 0)):
			dp.ok = false
		}
		// Update phase: fixed compute per consumed object.
		dp.computeAt = cy + computePer
	}

	// Compute stream first (it must never starve behind the collector):
	// one object at a time, gated by the update phase.
	if dp.cursor < len(dp.trace) && cy >= dp.computeAt && dp.cursor < dp.done+4 {
		req := ctrl.MetaReq{ID: uint64(dp.cursor), Op: ctrl.MetaLoad,
			Key: metatag.Key{dp.trace[dp.cursor], 0}, Issued: cy}
		if dp.c.ReqQ.Push(req) {
			dp.cursor++
		}
	}

	// Collector: run ahead of the compute stream, leaving queue headroom
	// so preloads never monopolize the meta port.
	for dp.preCursor < len(dp.trace) && dp.preCursor < dp.cursor+dp.lookahead &&
		dp.c.ReqQ.Len() < dp.c.ReqQ.Cap()/2 {
		req := ctrl.MetaReq{ID: preloadBit | uint64(dp.preCursor), Op: ctrl.MetaLoad,
			Key: metatag.Key{dp.trace[dp.preCursor], 0}, Issued: cy}
		if !dp.c.ReqQ.Push(req) {
			break
		}
		dp.preCursor++
	}
}

// RunXCache measures DASX over X-Cache with the decoupled collector
// preloading through meta loads.
func RunXCache(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	sys, err := core.NewSystem(opt.Cfg, dram.DefaultConfig(), Spec(0))
	if err != nil {
		return dsa.Result{}, err
	}
	ix, trace := widx.BuildWorkload(w, sys.Img)
	prog, err := Spec(ix.Shift).Compile()
	if err != nil {
		return dsa.Result{}, err
	}
	if err := sys.Cache.Ctrl.LoadProgram(prog); err != nil {
		return dsa.Result{}, fmt.Errorf("dasx xcache: %w", err)
	}
	sys.Cache.SetEnv(0, ix.Table)
	sys.Cache.SetEnv(1, hashidx.HashMul)

	dp := &collector{c: sys.Cache.Ctrl, trace: trace, ix: ix, lookahead: opt.Lookahead, ok: true}
	sys.K.Add(dp)
	r, err := dsa.Run(sys.K, sys.Meter, opt.Check, func() bool { return dp.done == len(trace) }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("dasx xcache: aborted at %d/%d: %w", dp.done, len(trace), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = "DASX", w.Profile.Name, dsa.KindXCache, dp.ok
	return r, nil
}

// RunAddr measures the same workload over an address cache with an ideal
// walker (no hashing cost, no round barriers).
func RunAddr(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	r, err := widx.RunAddr(w, widx.Options{Cfg: opt.Cfg, MaxCycles: opt.MaxCycles})
	if err != nil {
		return dsa.Result{}, fmt.Errorf("dasx addr: %w", err)
	}
	r.DSA = "DASX"
	return r, nil
}

// RunBaseline measures the original DASX: refill-compute-update rounds
// over a hardwired object cache that is reloaded every round, with
// hashing coupled into every walk.
func RunBaseline(w widx.Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	cache := addrcache.New(k, widx.AddrGeometry(opt.Cfg), d.Req, d.Resp, meter)
	eng := addrcache.NewEngine(k, addrcache.EngineConfig{Contexts: opt.Cfg.NumActive}, cache)
	ix, trace := widx.BuildWorkload(w, img)

	var (
		roundStart = 0
		inflight   = 0
		issued     = 0
		done       = 0
		okAll      = true
		computing  = sim.Cycle(0)
	)
	pump := sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := eng.Resp.Pop()
			if !popped {
				break
			}
			inflight--
			done++
			key := trace[resp.ID]
			rid, present := ix.RIDs[key]
			if present != resp.Result.Found || (present && rid != resp.Result.Value) {
				okAll = false
			}
		}
		if cy < computing {
			return // compute phase of the previous round
		}
		roundEnd := roundStart + roundSize
		if roundEnd > len(trace) {
			roundEnd = len(trace)
		}
		// Refill phase: issue this round's objects.
		for issued < roundEnd {
			hash := w.Profile.HashCycles
			job := addrcache.Job{ID: uint64(issued),
				W: widx.NewProbeWalk(ix, trace[issued], hash), Issued: cy}
			if !eng.Jobs.Push(job) {
				return
			}
			meter.AddOps += uint64(hash)
			issued++
			inflight++
		}
		// Round barrier: all refills done → compute phase → reload cache.
		if inflight == 0 && issued == roundEnd && done == issued && roundStart < len(trace) {
			computing = cy + sim.Cycle(computePer*(roundEnd-roundStart))
			roundStart = roundEnd
			cache.InvalidateAll()
		}
	})
	k.Add(pump)
	r, err := dsa.Run(k, meter, nil, func() bool { return done == len(trace) && k.Cycle() >= computing }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("dasx baseline: aborted at %d/%d: %w", done, len(trace), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = "DASX", w.Profile.Name, dsa.KindBaseline, okAll
	return r, nil
}
