// Package graphpulse reproduces the GraphPulse DSA (MICRO'20): an
// event-driven asynchronous graph processor. Its event queue — which
// coalesces delta events to the same vertex — is replaced by X-Cache:
// incoming events are meta stores tagged by vertex id, merged by addition
// in the data RAM when the id hits, allocated when it misses (no DRAM
// walk at all). Between supersteps the datapath drains the coalesced
// events, streams the drained vertices' adjacency from a dedicated DRAM
// channel, and emits the next event wave (§7.2).
//
// Deltas are Q20.44 fixed point so the coalescing add is an integer
// operation, as in hardware.
package graphpulse

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/graph"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// FixShift is the fixed-point scale for delta payloads.
const FixShift = 44

// ToFix converts a float delta to the payload representation.
func ToFix(x float64) uint64 { return uint64(int64(x * (1 << FixShift))) }

// FromFix converts a payload back to float.
func FromFix(v uint64) float64 { return float64(int64(v)) / (1 << FixShift) }

// Work is one PageRank problem.
type Work struct {
	N     int
	E     int
	Seed  int64
	Name  string
	Eps   float64 // delta threshold: smaller drained deltas are discarded
	MaxSS int     // superstep cap
}

// P2PGnutella08 returns the paper's small input (N=6.3K, NNZ=21K),
// divided by scale.
func P2PGnutella08(scale int) Work {
	if scale < 1 {
		scale = 1
	}
	return Work{N: 6300 / scale, E: 21000 / scale, Seed: 8, Name: "p2p-08", Eps: 1e-7, MaxSS: 300}
}

// WebGoogle returns the paper's large input (N=916K, NNZ=5.1M), divided
// by scale.
func WebGoogle(scale int) Work {
	if scale < 1 {
		scale = 1
	}
	return Work{N: 916000 / scale, E: 5100000 / scale, Seed: 99, Name: "web-Google", Eps: 1e-7, MaxSS: 300}
}

// Options configure a run.
type Options struct {
	Cfg       core.Config // zero → core.GraphPulseConfig()
	MaxCycles int
	// Check attaches the hardening harness to the X-Cache run.
	Check *check.Config
}

const (
	// pes is the number of processing elements emitting events per
	// cycle: enough that event-insertion throughput — the X-Cache port,
	// what Fig 18 sweeps — is the binding constraint.
	pes     = 16
	damping = 0.85 // PageRank damping factor
)

func (o *Options) defaults() {
	if o.Cfg.Sets == 0 {
		o.Cfg = core.GraphPulseConfig()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 500_000_000
	}
}

// newAdjChannel opens the dedicated adjacency stream channel. GraphPulse
// streams adjacency over a wide interface; the event-insertion path, not
// edge bandwidth, is the design bottleneck Fig 18 studies.
func newAdjChannel(k *sim.Kernel, img *mem.Image) *dram.DRAM {
	cfg := dram.DefaultConfig()
	cfg.TBusPerWord = 0
	return dram.New(k, cfg, img)
}

// Spec is the GraphPulse event-store walker: a store miss allocates an
// entry for the vertex and deposits the payload. Merges on hits happen in
// the dedicated hit pipeline; there is no DRAM walk — the event structure
// lives entirely on chip.
func Spec() program.Spec {
	return program.Spec{
		Name: "eventstore",
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaStore", Asm: `
				allocm
				allocdi r7, 1
				writed r7, r0     ; deposit the event payload
				li r8, 1
				update r7, r8
				halt Valid
			`},
		},
	}
}

// batch is a group of drained vertices with consecutive ids whose
// adjacency is fetched as one sequential burst — GraphPulse drains its
// event queue in vertex order precisely so edge fetches stream. A
// retired batch is reused with its backing arrays.
type batch struct {
	vs     []int
	deltas []float64
	words  int // adjacency words still to arrive
	cur    int // vertex being emitted
	emit   int // next out-edge of that vertex
}

// fetch is one adjacency request not yet accepted by the channel.
type fetch struct {
	req dram.Request
	b   *batch // the batch its words belong to
}

type genState struct {
	v     int
	delta float64
	words int // adjacency words still to arrive
	emit  int // next out-edge index to emit
}

type algoMode int

const (
	modePageRank algoMode = iota
	modeSSSP
)

// engine is the PE array plus the superstep drain loop. It runs either
// delta-PageRank (add-coalescing events) or SSSP (min-coalescing events)
// — the same hardware, a different merge operator in the hit pipeline.
type engine struct {
	mode    algoMode
	src     int
	settled []int64 // SSSP: best applied distance per vertex
	c       *ctrl.Controller
	g       *graph.Graph
	lay     graph.Layout
	adj     *dram.DRAM // dedicated adjacency stream channel
	eps     float64
	maxSS   int

	rank     []float64
	drained  []ctrl.Drained    // this superstep's events, by vertex id
	drainPos int               // next drained event to batch
	batches  []*batch          // this superstep's batches, in drain order
	batchPos int               // head batch: it generates once its words reach 0
	free     []*batch          // retired batches
	inAdj    map[uint64]*batch // issued adjacency request id → its batch
	issueQ   []fetch           // adjacency requests; those from issuePos on are not yet accepted
	issuePos int
	nextID   uint64
	lastPush sim.Cycle // last cycle an event was pushed (staged commits next cycle)
	ss       int
	done     bool
	seeded   bool
	seedPos  int
}

func (e *engine) Tick(cy sim.Cycle) {
	// Discard meta responses (stores need no consumer).
	for {
		resp, ok := e.c.RespQ.Pop()
		if !ok {
			break
		}
		resp.Data.Release()
	}
	// Adjacency arrivals unblock generation.
	for {
		resp, ok := e.adj.Resp.Pop()
		if !ok {
			break
		}
		b := e.inAdj[resp.ID]
		if b == nil {
			panic("graphpulse: stray adjacency response")
		}
		delete(e.inAdj, resp.ID)
		b.words -= resp.Data.Len()
		resp.Data.Release()
	}

	// Seeding superstep. PageRank injects (1-d)/N into every vertex;
	// SSSP injects distance 0 at the source.
	if !e.seeded {
		if e.mode == modeSSSP {
			if e.seedPos == 0 {
				req := ctrl.MetaReq{ID: e.nid(), Op: ctrl.MetaStoreMergeMin,
					Key: metatag.Key{uint64(e.src), 0}, Payload: 0, Issued: cy}
				if e.c.ReqQ.Push(req) {
					e.seedPos = 1
					e.lastPush = cy
				}
			}
			if e.seedPos == 1 && cy >= e.lastPush+2 && e.c.Idle() {
				e.seeded = true
			}
			return
		}
		init := (1 - damping) / float64(e.g.N)
		for i := 0; i < pes && e.seedPos < e.g.N; i++ {
			req := ctrl.MetaReq{ID: e.nid(), Op: ctrl.MetaStoreMerge,
				Key: metatag.Key{uint64(e.seedPos), 0}, Payload: ToFix(init), Issued: cy}
			if !e.c.ReqQ.Push(req) {
				break
			}
			e.lastPush = cy
			e.rank[e.seedPos] += init
			e.seedPos++
		}
		if e.seedPos == e.g.N && cy >= e.lastPush+2 && e.c.Idle() {
			e.seeded = true
		}
		return
	}

	// Generation: PEs emit events from the head batch once all its
	// adjacency has arrived. A batch with unissued requests still has
	// words outstanding by construction.
	emitted := 0
	for emitted < pes && e.batchPos < len(e.batches) && e.batches[e.batchPos].words <= 0 {
		b := e.batches[e.batchPos]
		if b.cur >= len(b.vs) {
			e.batchPos++
			e.free = append(e.free, b)
			continue
		}
		v := b.vs[b.cur]
		out := e.g.Out(v)
		if b.emit >= len(out) {
			b.cur++
			b.emit = 0
			continue
		}
		w := out[b.emit]
		var req ctrl.MetaReq
		var share float64
		if e.mode == modeSSSP {
			req = ctrl.MetaReq{ID: e.nid(), Op: ctrl.MetaStoreMergeMin,
				Key: metatag.Key{uint64(w), 0}, Payload: uint64(b.deltas[b.cur]) + 1, Issued: cy}
		} else {
			share = damping * b.deltas[b.cur] / float64(len(out))
			req = ctrl.MetaReq{ID: e.nid(), Op: ctrl.MetaStoreMerge,
				Key: metatag.Key{uint64(w), 0}, Payload: ToFix(share), Issued: cy}
		}
		if !e.c.ReqQ.Push(req) {
			break
		}
		e.lastPush = cy
		if e.mode == modePageRank {
			e.rank[w] += share
		}
		b.emit++
		emitted++
	}

	// Issue queued adjacency requests (bounded per cycle).
	for i := 0; i < 8 && e.issuePos < len(e.issueQ); i++ {
		f := e.issueQ[e.issuePos]
		if !e.adj.Req.Push(f.req) {
			break
		}
		e.inAdj[f.req.ID] = f.b
		e.issuePos++
	}
	if e.issuePos == len(e.issueQ) {
		e.issueQ, e.issuePos = e.issueQ[:0], 0
	}

	// Prefetch adjacency for drained vertices: a decoupled fetcher running
	// well ahead of the PEs. Drained events are sorted by vertex id, so
	// consecutive vertices' edge lists coalesce into single sequential
	// bursts.
	for e.drainPos < len(e.drained) && len(e.inAdj)+len(e.issueQ)-e.issuePos < 48 {
		b := e.newBatch()
		spanStart := -1
		for ; e.drainPos < len(e.drained); e.drainPos++ {
			d := e.drained[e.drainPos]
			v := int(d.Key[0])
			var delta float64
			if e.mode == modeSSSP {
				dist := int64(d.Value)
				if dist >= e.settled[v] {
					continue // stale relaxation: event discarded
				}
				if e.g.OutDeg(v) == 0 {
					e.settled[v] = dist
					continue
				}
				delta = float64(dist)
			} else {
				delta = FromFix(d.Value)
				if math.Abs(delta) < e.eps || e.g.OutDeg(v) == 0 {
					continue // below threshold or sink: event discarded
				}
			}
			span := int(e.g.OutPtr[v+1]) + 2
			if spanStart < 0 {
				spanStart = int(e.g.OutPtr[v])
			}
			if span-spanStart > 64 && len(b.vs) > 0 {
				break // burst full: v stays at the head for the next batch
			}
			// The vertex is committed to this batch; only now may SSSP
			// settle its distance (settling earlier would make the
			// deferred-to-next-batch path discard it as stale).
			if e.mode == modeSSSP {
				e.settled[v] = int64(d.Value)
			}
			b.vs = append(b.vs, v)
			b.deltas = append(b.deltas, delta)
			b.words = span - spanStart
		}
		if len(b.vs) == 0 {
			e.free = append(e.free, b)
			continue
		}
		addr := e.lay.OutDst + uint64(spanStart)*8
		for w := 0; w < b.words; w += 64 {
			req := dram.Request{ID: e.nid(), Addr: addr + uint64(w)*8, Words: min(b.words-w, 64)}
			e.issueQ = append(e.issueQ, fetch{req, b})
		}
		e.batches = append(e.batches, b)
	}

	// Superstep barrier: all events applied (including pushes still staged
	// in the registered request queue — they commit a cycle after the
	// push), all generation finished.
	if e.drainPos == len(e.drained) && e.batchPos == len(e.batches) &&
		len(e.inAdj) == 0 && len(e.issueQ) == 0 && cy >= e.lastPush+2 &&
		e.c.Idle() && e.adj.Idle() {
		e.ss++
		e.drained, e.drainPos = e.drained[:0], 0
		e.batches, e.batchPos = e.batches[:0], 0
		n := e.c.DrainStable(func(d ctrl.Drained) {
			e.drained = append(e.drained, d)
		})
		slices.SortFunc(e.drained, func(a, b ctrl.Drained) int {
			return cmp.Compare(a.Key[0], b.Key[0])
		})
		if n == 0 || e.ss > e.maxSS {
			e.done = true
		}
	}
}

func (e *engine) nid() uint64 {
	e.nextID++
	return e.nextID
}

// newBatch takes an empty batch from the free list, or makes one.
func (e *engine) newBatch() *batch {
	if len(e.free) == 0 {
		return &batch{}
	}
	b := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	*b = batch{vs: b.vs[:0], deltas: b.deltas[:0]}
	return b
}

// inf is the SSSP distance of a vertex not yet reached.
const inf = int64(1) << 30

// run executes the event-store workload over X-Cache (or its hardwired
// twin): delta-PageRank to convergence, validated against the
// delta-PageRank reference, or SSSP from src, validated against BFS.
func run(w Work, opt Options, hardwired bool, mode algoMode, src int) (dsa.Result, error) {
	opt.defaults()
	cfg := opt.Cfg
	cfg.Hardwired = hardwired
	g := graph.RMAT(w.N, w.E, w.Seed)

	sys, err := core.NewSystem(cfg, dram.DefaultConfig(), Spec())
	if err != nil {
		return dsa.Result{}, err
	}
	lay := g.WriteTo(sys.Img)
	e := &engine{mode: mode, src: src, c: sys.Cache.Ctrl, g: g, lay: lay,
		adj: newAdjChannel(sys.K, sys.Img), eps: w.Eps, maxSS: w.MaxSS,
		rank: make([]float64, g.N), inAdj: map[uint64]*batch{}}
	if mode == modeSSSP {
		e.settled = make([]int64, g.N)
		for v := range e.settled {
			e.settled[v] = inf
		}
	}
	sys.K.Add(e)

	name := "graphpulse"
	if mode == modeSSSP {
		name = "graphpulse sssp"
	}
	kind := dsa.KindXCache
	if hardwired {
		kind = dsa.KindBaseline
	}
	r, err := dsa.Run(sys.K, sys.Meter, opt.Check, func() bool { return e.done }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("%s %s: aborted in superstep %d: %w", name, kind, e.ss, err)
	}
	r.DSA, r.Workload, r.Kind = "GraphPulse", w.Name, kind
	if mode == modeSSSP {
		r.Workload += "/sssp"
		r.Checked = distancesMatch(e.settled, graph.BFS(g, src), src)
	} else {
		r.Checked = ranksMatch(g, w, e.rank)
	}
	return r, nil
}

// ranksMatch validates ranks against the delta-PageRank reference.
func ranksMatch(g *graph.Graph, w Work, rank []float64) bool {
	ref, _ := graph.DeltaPageRank(g, graph.PageRankParams{Damping: damping, Eps: w.Eps, MaxIter: w.MaxSS})
	for v := range ref {
		if math.Abs(ref[v]-rank[v]) > 1e-4*(1+math.Abs(ref[v])) {
			return false
		}
	}
	return true
}

// distancesMatch validates settled SSSP distances against the BFS
// reference ref from src.
func distancesMatch(settled, ref []int64, src int) bool {
	for v := range ref {
		got := settled[v]
		switch {
		case v == src:
			// The source settles at 0 via its seed event.
			if got != 0 {
				return false
			}
		case ref[v] >= inf:
			if got < inf {
				return false
			}
		case got != ref[v]:
			return false
		}
	}
	return true
}

// RunXCache measures GraphPulse with X-Cache as the event store.
func RunXCache(w Work, opt Options) (dsa.Result, error) { return run(w, opt, false, modePageRank, 0) }

// RunBaseline measures the original hardwired event queue (identical
// structures, fixed-function controller).
func RunBaseline(w Work, opt Options) (dsa.Result, error) { return run(w, opt, true, modePageRank, 0) }

// RunSSSP runs single-source shortest paths (unit weights) on the same
// event-store hardware: events coalesce with MIN instead of ADD in the
// hit pipeline — one changed merge operator, everything else identical.
// Distances are validated against a BFS reference.
func RunSSSP(w Work, opt Options, src int) (dsa.Result, error) {
	return run(w, opt, false, modeSSSP, src)
}

// RunAddr measures the address-based alternative: deltas live in a dense
// DRAM-resident array accessed read-modify-write through an address
// cache, and every superstep must scan the whole array to find active
// vertices — the footprint and scan cost meta-tags eliminate. Delta
// values genuinely flow through the cache (fixed-point words in the
// memory image); the final ranks are validated against the reference.
func RunAddr(w Work, opt Options) (dsa.Result, error) {
	opt.defaults()
	g := graph.RMAT(w.N, w.E, w.Seed)
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	cache := addrcache.New(k, widx.AddrGeometry(opt.Cfg), d.Req, d.Resp, meter)
	adj := newAdjChannel(k, img)
	deltaArr := img.AllocWords(g.N + 8)
	_ = g.WriteTo(img)

	// Seed: every vertex starts with delta (1-d)/N, resident in memory.
	rank := make([]float64, g.N)
	acc := make([]uint64, g.N) // mirror of the accumulated fixed-point deltas
	init := (1 - damping) / float64(g.N)
	for v := 0; v < g.N; v++ {
		rank[v] = init
		acc[v] = ToFix(init)
		img.W64(deltaArr+uint64(v)*8, acc[v])
	}

	const (
		idWrite = 1 // stores: ack ignored
		idScan  = 2 // scan reads: data processed
	)
	var (
		ss          int
		doneAll     bool
		outstanding int
		scanCursor  int
		scanning    = true
		genQ        []genState
		adjOut      int
		events      uint64
		pendWrites  []addrcache.Access // stores awaiting queue space
	)
	pushWrite := func(a addrcache.Access, cache *addrcache.Cache) {
		if cache.ReqQ.Push(a) {
			outstanding++
			return
		}
		pendWrites = append(pendWrites, a)
	}
	pump := sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, ok := cache.RespQ.Pop()
			if !ok {
				break
			}
			outstanding--
			if resp.ID != idScan {
				continue
			}
			// Scan data: find active vertices, clear their deltas.
			for i, word := range resp.Data[:resp.Words] {
				v := int((resp.BlockBase-deltaArr)/8) + i
				if v < 0 || v >= g.N {
					continue
				}
				delta := FromFix(word)
				if math.Abs(delta) < w.Eps {
					continue
				}
				acc[v] = 0
				pushWrite(addrcache.Access{ID: idWrite, Addr: deltaArr + uint64(v)*8, Write: true, Data: 0, Issued: cy}, cache)
				if g.OutDeg(v) > 0 {
					genQ = append(genQ, genState{v: v, delta: delta})
				}
			}
		}
		for {
			resp, ok := adj.Resp.Pop()
			if !ok {
				break
			}
			resp.Data.Release()
			adjOut--
		}
		if doneAll {
			return
		}
		// Flush stores that hit queue backpressure (they carry state the
		// next scan depends on).
		n := 0
		for n < len(pendWrites) && cache.ReqQ.Push(pendWrites[n]) {
			outstanding++
			n++
		}
		pendWrites = pendWrites[:copy(pendWrites, pendWrites[n:])]
		if len(pendWrites) > 0 {
			return
		}
		// Phase 1: scan the delta array (every block, active or not).
		if scanning {
			for i := 0; i < 4 && scanCursor < g.N; i++ {
				if !cache.ReqQ.Push(addrcache.Access{ID: idScan, Addr: deltaArr + uint64(scanCursor)*8, Issued: cy}) {
					return
				}
				outstanding++
				scanCursor += 4 // one block covers 4 vertices
			}
			if scanCursor >= g.N && outstanding == 0 {
				scanning = false
				ss++
				if len(genQ) == 0 || ss > w.MaxSS {
					doneAll = true
				}
			}
			return
		}
		// Phase 2: generate events; each is an RMW on delta[w] through the
		// cache, plus adjacency streaming.
		emitted := 0
		for emitted < pes && len(genQ) > 0 {
			gs := &genQ[0]
			out := g.Out(gs.v)
			if gs.emit == 0 {
				if adjOut >= 8 {
					break // adjacency stream saturated
				}
				adj.Req.MustPush(dram.Request{ID: uint64(gs.v),
					Addr: 0x100000 + uint64(gs.v)*64, Words: len(out) + 2})
				adjOut++
			}
			if gs.emit >= len(out) {
				genQ = genQ[1:]
				continue
			}
			wv := out[gs.emit]
			share := damping * gs.delta / float64(len(out))
			newAcc := acc[wv] + ToFix(share)
			if !cache.ReqQ.CanPush() {
				break
			}
			pushWrite(addrcache.Access{ID: idWrite, Addr: deltaArr + uint64(wv)*8, Write: true, Data: newAcc, Issued: cy}, cache)
			acc[wv] = newAcc
			rank[wv] += share
			events++
			gs.emit++
			emitted++
		}
		if len(genQ) == 0 && outstanding == 0 && adjOut == 0 {
			scanning = true
			scanCursor = 0
		}
	})
	k.Add(pump)
	r, err := dsa.Run(k, meter, nil, func() bool { return doneAll }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("graphpulse addr: aborted in superstep %d: %w", ss, err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = "GraphPulse", w.Name, dsa.KindAddr, ranksMatch(g, w, rank)
	return r, nil
}
