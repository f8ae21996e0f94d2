// Package btreeidx ports X-Cache to a DSA family the paper does not
// evaluate: B+-tree index probing (the other index structure Widx-class
// database accelerators walk). It demonstrates two claims at once:
//
//   - reusability — the identical controller, ISA and compiler run a
//     multi-level descent walker with the search key as the meta-tag;
//   - the §6 MXA composition — trees are the structure where an address
//     cache genuinely helps the *miss* path (upper levels are shared by
//     every descent), so the X-Cache here sits on top of an address
//     cache: meta hits short-circuit the whole descent, and walker fills
//     hit the tree's hot upper levels on chip.
//
// The comparison splits the same total on-chip budget: the pure
// address-cache baseline gets all of it; the MXA build gives half to the
// meta-tagged level and half to the address level beneath it.
package btreeidx

import (
	"fmt"
	"math/rand"

	"xcache/internal/addrcache"
	"xcache/internal/btree"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/energy"
	"xcache/internal/hier"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// Work describes a probe workload.
type Work struct {
	NumKeys    int
	Probes     int
	ZipfS      float64
	AbsentFrac float64
	Seed       int64
}

// DefaultWork sizes a workload, divided by scale.
func DefaultWork(scale int) Work {
	if scale < 1 {
		scale = 1
	}
	keys := 100000 / scale
	if keys < 64 {
		keys = 64
	}
	return Work{NumKeys: keys, Probes: 4 * keys, ZipfS: 1.3, AbsentFrac: 0.05, Seed: 7}
}

// Options configure a run.
type Options struct {
	Cfg       core.Config
	MaxCycles int
	// Check attaches the hardening harness to the X-Cache run. DRAM
	// drop/delay faults never apply here — the controller's fills are
	// served by the address-cache level, not a DRAM channel.
	Check *check.Config
}

func (o *Options) defaults() {
	if o.Cfg.Sets == 0 {
		o.Cfg = Config()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
}

// Config returns the design point: Widx-class geometry with 8-word fills
// for whole-node fetches.
func Config() core.Config {
	return core.Config{Name: "BTreeIdx", NumActive: 16, NumExe: 2,
		Ways: 8, Sets: 1024, WordsPerSector: 4, KeyWords: 1, MaxFillWords: 8}
}

// Spec is the B+-tree descent walker: fetch the root (e0), then per node
// either pick a child with three compares (internal) or match a leaf slot.
func Spec() program.Spec {
	return program.Spec{
		Name:   "btree",
		States: []string{"Node"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1
				allocm
				lde r4, e0         ; root node address
				enqfilli r4, 8
				state Node
			`},
			{State: "Node", Event: "Fill", Asm: `
				peek r7, 7         ; leaf flag
				bnz r7, leaf
				peek r5, 0         ; separators: first k with key < k wins
				blt r1, r5, c0
				peek r5, 1
				blt r1, r5, c1
				peek r5, 2
				blt r1, r5, c2
				peek r6, 6         ; rightmost child
				jmp descend
			c0:
				peek r6, 3
				jmp descend
			c1:
				peek r6, 4
				jmp descend
			c2:
				peek r6, 5
			descend:
				bnz r6, go
				li r9, 0
				enqresp r9, NOTFOUND
				abort
			go:
				enqfilli r6, 8
				state Node
			leaf:
				peek r5, 0
				beq r5, r1, m0
				peek r5, 1
				beq r5, r1, m1
				peek r5, 2
				beq r5, r1, m2
				li r9, 0
				enqresp r9, NOTFOUND
				abort
			m0:
				peek r9, 3
				jmp found
			m1:
				peek r9, 4
				jmp found
			m2:
				peek r9, 5
			found:
				allocdi r7, 1
				writed r7, r9
				li r8, 1
				update r7, r8
				enqresp r9, OK
				halt Valid
			`},
		},
	}
}

// buildWorkload constructs the tree and a Zipf probe trace.
func buildWorkload(w Work, img *mem.Image) (*btree.Tree, []uint64) {
	keys := make([]uint64, w.NumKeys)
	for i := range keys {
		keys[i] = uint64(i)*2 + 2 // even keys; odd keys are absent probes
	}
	t := btree.Build(img, keys)
	rng := rand.New(rand.NewSource(w.Seed))
	zipf := rand.NewZipf(rng, w.ZipfS, 1, uint64(len(t.Keys)-1))
	perm := rng.Perm(len(t.Keys))
	trace := make([]uint64, w.Probes)
	for i := range trace {
		if rng.Float64() < w.AbsentFrac {
			trace[i] = uint64(rng.Intn(w.NumKeys*2))*2 + 1
			continue
		}
		trace[i] = t.Keys[perm[zipf.Uint64()]]
	}
	return t, trace
}

// RunXCache probes the tree through the MXA composition: a programmed
// X-Cache (half the on-chip budget) whose walker fills are served by an
// address cache (the other half) holding the tree's hot upper levels.
func RunXCache(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	// Split the budget: meta level gets half the sets.
	cfg := opt.Cfg
	cfg.Sets /= 2
	if cfg.Sets < 1 {
		cfg.Sets = 1
	}
	cfg.Sectors = 0 // re-derive from the halved geometry

	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	l2 := addrcache.New(k, addrGeometry(opt.Cfg, 2), d.Req, d.Resp, meter)
	_, xcReq, xcResp := hier.NewXCOverAddr(k, l2)
	xc, err := core.Build(k, cfg, Spec(), xcReq, xcResp, meter)
	if err != nil {
		return dsa.Result{}, err
	}
	t, trace := buildWorkload(w, img)
	xc.SetEnv(0, t.Root)

	cursor, done := 0, 0
	okAll := true
	pump := sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := xc.Ctrl.RespQ.Pop()
			if !popped {
				break
			}
			resp.Data.Release() // the pump reads Status and Value
			done++
			key := trace[resp.ID]
			want, present := t.Values[key]
			switch {
			case present && (resp.Status != program.StatusOK || resp.Value != want):
				okAll = false
			case !present && resp.Status != program.StatusNotFound:
				okAll = false
			}
		}
		for i := 0; i < 2 && cursor < len(trace); i++ {
			req := ctrl.MetaReq{ID: uint64(cursor), Op: ctrl.MetaLoad,
				Key: metatag.Key{trace[cursor], 0}, Issued: cy}
			if !xc.Ctrl.ReqQ.Push(req) {
				break
			}
			cursor++
		}
	})
	k.Add(pump)
	r, err := dsa.Run(k, meter, opt.Check, func() bool { return done == len(trace) }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("btree xcache: aborted at %d/%d: %w", done, len(trace), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = "BTreeIdx", "zipf", dsa.KindXCache, okAll
	return r, nil
}

// addrGeometry sizes an address cache to the X-Cache config's data bytes
// divided by div, with 64-byte node blocks.
func addrGeometry(cfg core.Config, div int) addrcache.Config {
	blocks := cfg.Sets * cfg.Ways * cfg.WordsPerSector / 8 / div
	ways := 8
	sets := 1
	for sets*2 <= blocks/ways {
		sets *= 2
	}
	return addrcache.Config{Sets: sets, Ways: ways, BlockWords: 8}
}

// treeWalk is the address-based descent (64-byte node blocks).
type treeWalk struct {
	t     *btree.Tree
	key   uint64
	cur   uint64
	begun bool
}

func (tw *treeWalk) Next(blockBase uint64, data []uint64) (addrcache.Step, addrcache.Result, bool) {
	if !tw.begun {
		tw.begun = true
		tw.cur = tw.t.Root
		return addrcache.Step{Addr: tw.cur}, addrcache.Result{}, false
	}
	node := data[(tw.cur-blockBase)/8:]
	if node[7] == 1 { // leaf
		for j := 0; j < 3; j++ {
			if node[j] == tw.key {
				return addrcache.Step{}, addrcache.Result{Found: true, Value: node[3+j], Words: 1}, true
			}
		}
		return addrcache.Step{}, addrcache.Result{Found: false}, true
	}
	slot := 3
	for j := 0; j < 3; j++ {
		if tw.key < node[j] {
			slot = j
			break
		}
	}
	child := node[3+slot]
	if child == 0 {
		return addrcache.Step{}, addrcache.Result{Found: false}, true
	}
	tw.cur = child
	return addrcache.Step{Addr: child}, addrcache.Result{}, false
}

// RunAddr probes through an address-tagged cache with an ideal walker.
func RunAddr(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	// The whole on-chip budget, 64-byte (node-sized) blocks.
	cache := addrcache.New(k, addrGeometry(opt.Cfg, 1), d.Req, d.Resp, meter)
	eng := addrcache.NewEngine(k, addrcache.EngineConfig{Contexts: opt.Cfg.NumActive}, cache)
	t, trace := buildWorkload(w, img)

	cursor, done := 0, 0
	okAll := true
	var walks addrcache.WalkPool[treeWalk]
	pump := sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := eng.Resp.Pop()
			if !popped {
				break
			}
			done++
			walks.Put(resp.W.(*treeWalk))
			key := trace[resp.ID]
			want, present := t.Values[key]
			if present != resp.Result.Found || (present && want != resp.Result.Value) {
				okAll = false
			}
		}
		// Take a walk only once the job queue has room for it.
		for cursor < len(trace) && eng.Jobs.CanPush() {
			tw := walks.Get()
			*tw = treeWalk{t: t, key: trace[cursor]}
			eng.Jobs.MustPush(addrcache.Job{ID: uint64(cursor), W: tw, Issued: cy})
			cursor++
		}
	})
	k.Add(pump)
	r, err := dsa.Run(k, meter, nil, func() bool { return done == len(trace) }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("btree addr: aborted at %d/%d: %w", done, len(trace), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = "BTreeIdx", "zipf", dsa.KindAddr, okAll
	return r, nil
}
