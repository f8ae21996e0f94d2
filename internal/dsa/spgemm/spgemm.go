// Package spgemm reproduces the two sparse-GEMM DSAs of §5: SpArch
// (outer-product, HPCA'20) and Gamma (Gustavson's algorithm, ASPLOS'21).
// Both stream the multiplier matrix A from DRAM and use X-Cache to hold
// rows of matrix B, meta-tagged by row index. The walker reads
// B.row_ptr[k], allocates a variable number of sectors, and performs a
// tiled refill of the row's (col,val) pairs — SpArch and Gamma share the
// exact same X-Cache microarchitecture and walker; only the datapath
// streaming order differs (§1: "we only had to reprogram the controller").
package spgemm

import (
	"fmt"
	"math"

	"xcache/internal/addrcache"
	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/dsa"
	"xcache/internal/dsa/widx"
	"xcache/internal/energy"
	"xcache/internal/hier"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
	"xcache/internal/sparse"
)

// Algorithm selects the dataflow.
type Algorithm string

// The two SpGEMM dataflows of §3.2/§5.
const (
	// SpArch streams A column-major (CSC) and pairs column k of A with
	// row k of B: near-sequential B rows, hidden by decoupled preload.
	SpArch Algorithm = "SpArch"
	// Gamma streams A row-major (Gustavson) and requests B row k for
	// every nonzero A[i,k]: dynamic, input-dependent reuse of B rows.
	Gamma Algorithm = "Gamma"
	// Inner is the paper's Fig 2 motivating dataflow: inner-product
	// SpGEMM with B stored column-major (CSC). X-Cache is meta-tagged by
	// B's column index; reuse is entirely input-dependent and conditional
	// on A's nonzero pattern. It runs on the same microarchitecture and
	// walker as SpArch/Gamma — only the metadata binding (CSC instead of
	// CSR) and the dataflow change.
	Inner Algorithm = "Inner"
)

// Work is one SpGEMM problem.
type Work struct {
	N    int
	NNZ  int
	Seed int64
}

// P2PGnutella31 returns the paper's SpGEMM input scale (N=67K, NNZ=147K),
// divided by scale for unit tests.
func P2PGnutella31(scale int) Work {
	if scale < 1 {
		scale = 1
	}
	return Work{N: 67000 / scale, NNZ: 147000 / scale, Seed: 31}
}

// Options configure a run.
type Options struct {
	Cfg       core.Config // zero → core.SpArchConfig()/GammaConfig()
	MaxCycles int
	Lookahead int // SpArch decoupled-preload distance (rows)
	// Check attaches the hardening harness to the X-Cache run.
	Check *check.Config
}

// lanes is the multiplier lane count: a response costs products/lanes
// cycles of datapath time.
const lanes = 4

func (o *Options) defaults(alg Algorithm) {
	if o.Cfg.Sets == 0 {
		switch alg {
		case SpArch, Inner:
			o.Cfg = core.SpArchConfig()
		default:
			o.Cfg = core.GammaConfig()
		}
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 200_000_000
	}
	if o.Lookahead == 0 {
		o.Lookahead = 8
	}
}

// Spec is the shared row-fetch walker: META (read row_ptr[k], row_ptr[k+1])
// → AG/DATA (tiled refill of the row's interleaved (col,val) pairs in
// 8-word bursts, placed by fill address). Requires WordsPerSector = 4.
func Spec() program.Spec {
	return program.Spec{
		Name:   "rowfetch",
		States: []string{"Meta", "Filling"},
		Transitions: []program.Transition{
			{State: "Default", Event: "MetaLoad", Asm: `
				allocr r1
				allocm
				lde r4, e0         ; B.row_ptr base
				shl r5, r1, 3
				add r5, r4, r5
				enqfilli r5, 2     ; row_ptr[k], row_ptr[k+1]
				state Meta
			`},
			{State: "Meta", Event: "Fill", Asm: `
				peek r5, 0         ; start
				peek r6, 1         ; end
				not r7, r5
				inc r7
				add r7, r7, r6     ; nnz
				bnz r7, nonempty
				li r8, 0
				update r8, r8      ; empty row: zero sectors
				enqresp r8, OK
				halt Valid
			nonempty:
				allocr r9          ; data-RAM word base
				allocr r14         ; row base address in DRAM
				allocr r10         ; fills outstanding
				shl r8, r7, 1      ; words = 2·nnz
				addi r8, r8, 7
				shr r8, r8, 3      ; fills = ceil(words/8)
				mov r10, r8
				shl r8, r8, 1      ; sectors = 2 per 8-word burst (wlen=4)
				allocd r9, r8
				update r9, r8
				lde r4, e1         ; CV pair-array base
				shl r5, r5, 4      ; start · 16 bytes
				add r14, r4, r5
				mov r11, r14
				mov r12, r10
			issue:
				enqfilli r11, 8    ; AG: tiled refill, full bursts
				addi r11, r11, 64
				dec r12
				bnz r12, issue
				state Filling
			`},
			{State: "Filling", Event: "Fill", Asm: `
				peek r11, -1       ; burst address → placement
				not r13, r14
				inc r13
				add r13, r13, r11
				shr r13, r13, 3
				add r13, r13, r9
				peek r12, 0
				writed r13, r12
				inc r13
				peek r12, 1
				writed r13, r12
				inc r13
				peek r12, 2
				writed r13, r12
				inc r13
				peek r12, 3
				writed r13, r12
				inc r13
				peek r12, 4
				writed r13, r12
				inc r13
				peek r12, 5
				writed r13, r12
				inc r13
				peek r12, 6
				writed r13, r12
				inc r13
				peek r12, 7
				writed r13, r12
				dec r10
				bnz r10, more
				readd r6, r9
				enqresp r6, OK
				halt Valid
			more:
				state Filling
			`},
		},
	}
}

// newStreamer opens the MXS stream port (§6) that feeds matrix A: its
// own DRAM channel over the same memory image, prefetched sequentially.
func newStreamer(k *sim.Kernel, img *mem.Image, from, words uint64) *hier.Stream {
	return hier.NewStream(k, dram.New(k, dram.DefaultConfig(), img), from, words)
}

// maxStreamTake returns the largest single stream consumption in the
// schedule (the stream FIFO must cover it).
func maxStreamTake(sched []rowRequest) uint64 {
	var m uint64
	for _, r := range sched {
		if r.streamWords > m {
			m = r.streamWords
		}
	}
	return m
}

// rowRequest is one B-row demand from the dataflow: key is the row index;
// products is the number of multiply-accumulates it triggers.
type rowRequest struct {
	key      int64
	products int
	// streamWords is how much of the A stream this request consumes. One
	// element (2 words) for SpArch/Gamma; for Inner the whole A row is
	// consumed by its first pair and held in a row buffer for the rest.
	streamWords uint64
}

// buildSchedule flattens the dataflow's B-row request order.
func buildSchedule(alg Algorithm, a, b *sparse.CSR) []rowRequest {
	var sched []rowRequest
	switch alg {
	case Gamma:
		// Row-major over A: one request per nonzero A[i,k].
		for i := 0; i < a.Rows; i++ {
			cols, _ := a.Row(i)
			for _, k := range cols {
				sched = append(sched, rowRequest{key: k, products: b.RowNNZ(int(k)), streamWords: 2})
			}
		}
	case SpArch:
		// Column-major over A: one request per nonempty column k,
		// crossing the whole column with B row k.
		at := a.Transpose()
		for k := 0; k < at.Rows; k++ {
			nnzA := at.RowNNZ(k)
			if nnzA == 0 {
				continue
			}
			sched = append(sched, rowRequest{key: int64(k), products: nnzA * b.RowNNZ(k), streamWords: uint64(2 * nnzA)})
		}
	case Inner:
		// Row-major over A × column-major over B: for every output
		// C[i,j] the DSA intersects row i of A with column j of B. Empty
		// intersections are skipped (the MATCH step of Fig 2); each
		// productive pair requests B column j and scans both lists.
		bt := b.Transpose()
		c := sparse.MulGustavson(a, b)
		for i := 0; i < c.Rows; i++ {
			cols, _ := c.Row(i)
			nnzA := a.RowNNZ(i)
			first := uint64(2 * nnzA)
			for _, j := range cols {
				sched = append(sched, rowRequest{key: j, products: nnzA + bt.RowNNZ(int(j)), streamWords: first})
				first = 0
			}
		}
	}
	return sched
}

// datapath executes the schedule over X-Cache: it consumes A from the
// stream port, requests B rows as meta loads (with decoupled preload
// lookahead), and spends products/lanes cycles of multiplier time per
// response. Responses are validated against B.
type datapath struct {
	c         *ctrl.Controller
	stream    *hier.Stream
	b         *sparse.CSR
	sched     []rowRequest
	lookahead int

	issue    int
	done     int
	busyTil  sim.Cycle
	ok       bool
	products uint64
}

func (dp *datapath) Tick(cy sim.Cycle) {
	for {
		resp, popped := dp.c.RespQ.Pop()
		if !popped {
			break
		}
		req := dp.sched[resp.ID]
		dp.done++
		dp.validate(resp, req)
		// Multiply phase: products/lanes cycles of datapath occupancy.
		cost := (req.products + lanes - 1) / lanes
		if cost < 1 {
			cost = 1
		}
		if dp.busyTil < cy {
			dp.busyTil = cy
		}
		dp.busyTil += sim.Cycle(cost)
		dp.products += uint64(req.products)
	}
	// Issue: consume A from the stream (2 words per scheduled element),
	// keep up to lookahead B-row requests in flight ahead of the
	// multiplier.
	for dp.issue < len(dp.sched) && dp.issue < dp.done+dp.lookahead {
		if cy < dp.busyTil && dp.issue > dp.done {
			break // multiplier saturated; don't run arbitrarily ahead
		}
		if !dp.stream.Take(dp.sched[dp.issue].streamWords) {
			break
		}
		req := ctrl.MetaReq{ID: uint64(dp.issue), Op: ctrl.MetaLoad,
			Key: metatag.Key{uint64(dp.sched[dp.issue].key), 0}, Issued: cy}
		if !dp.c.ReqQ.Push(req) {
			break
		}
		dp.issue++
	}
}

func (dp *datapath) validate(resp ctrl.MetaResp, req rowRequest) {
	if resp.Status != program.StatusOK {
		dp.ok = false
		return
	}
	cols, vals := dp.b.Row(int(req.key))
	if resp.Words < 2*len(cols) {
		dp.ok = false
		return
	}
	n := len(cols)
	if 2*n > len(resp.Data) {
		n = len(resp.Data) / 2
	}
	for i := 0; i < n; i++ {
		if resp.Data[2*i] != uint64(cols[i]) ||
			math.Float64frombits(resp.Data[2*i+1]) != vals[i] {
			dp.ok = false
			return
		}
	}
}

func (dp *datapath) finished() bool {
	return dp.done == len(dp.sched)
}

// runX executes the given algorithm over X-Cache (hardwired=false) or the
// hardwired prefetch buffer of the original DSA (hardwired=true — SpArch's
// and Gamma's fetchers are fixed-function implementations of this exact
// FSM, so the baseline shares the structures and differs only in
// microcode programmability).
func runX(alg Algorithm, w Work, opt Options, hardwired bool) (dsa.Result, error) {
	opt.defaults(alg)
	cfg := opt.Cfg
	cfg.Hardwired = hardwired
	if cfg.WordsPerSector != 4 {
		return dsa.Result{}, fmt.Errorf("spgemm: row-fetch walker requires WordsPerSector=4, got %d", cfg.WordsPerSector)
	}

	a := sparse.RMAT(w.N, w.NNZ, w.Seed)
	b := sparse.RMAT(w.N, w.NNZ, w.Seed+1)
	fetch := b
	if alg == Inner {
		fetch = b.Transpose() // the walker fetches B columns (CSC)
	}

	// Provision the response snapshot for the largest fetched row/column.
	maxRow := 0
	for r := 0; r < fetch.Rows; r++ {
		if n := fetch.RowNNZ(r); n > maxRow {
			maxRow = n
		}
	}
	cfg.RespDataWords = 2*maxRow + 8

	sys, err := core.NewSystem(cfg, dram.DefaultConfig(), Spec())
	if err != nil {
		return dsa.Result{}, err
	}
	bl := fetch.WriteTo(sys.Img)
	al := a.WriteTo(sys.Img)
	sys.Cache.SetEnv(0, bl.RowPtr)
	sys.Cache.SetEnv(1, bl.CV)

	sched := buildSchedule(alg, a, b)
	str := newStreamer(sys.K, sys.Img, al.CV, uint64(2*a.NNZ()))
	str.SetBuffer(maxStreamTake(sched) + 8)
	dp := &datapath{c: sys.Cache.Ctrl, stream: str, b: fetch, sched: sched,
		lookahead: opt.Lookahead, ok: true}
	sys.K.Add(dp)
	r, err := dsa.Run(sys.K, sys.Meter, opt.Check, dp.finished, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("%s xcache: aborted at %d/%d rows: %w", alg, dp.done, len(sched), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = string(alg), "p2p-31", dsa.KindXCache, dp.ok
	if hardwired {
		r.Kind = dsa.KindBaseline
	}
	return r, nil
}

// RunXCache measures the algorithm over a programmed X-Cache.
func RunXCache(alg Algorithm, w Work, opt Options) (dsa.Result, error) {
	return runX(alg, w, opt, false)
}

// RunBaseline measures the original DSA's hardwired fetcher.
func RunBaseline(alg Algorithm, w Work, opt Options) (dsa.Result, error) {
	return runX(alg, w, opt, true)
}

// rowWalk is the address-based equivalent of one B-row access: read the
// row_ptr block, then every CV block of the row — even when the row is
// already on chip (§8.1: "an extra DRAM access is required to load the
// start pointer of the Row").
type rowWalk struct {
	rowPtr, cv uint64
	key        int64
	stage      int
	start, end int64
	nextBlk    uint64
	lastBlk    uint64
}

func (rw *rowWalk) Next(blockBase uint64, data []uint64) (addrcache.Step, *addrcache.Result) {
	switch rw.stage {
	case 0:
		rw.stage = 1
		return addrcache.Step{Addr: rw.rowPtr + uint64(rw.key)*8}, nil
	case 1:
		off := (rw.rowPtr + uint64(rw.key)*8 - blockBase) / 8
		rw.start = int64(data[off])
		if int(off)+1 < len(data) {
			rw.end = int64(data[off+1])
		} else {
			// row_ptr[k+1] falls in the next block.
			rw.stage = 2
			return addrcache.Step{Addr: rw.rowPtr + uint64(rw.key+1)*8}, nil
		}
		return rw.beginRow()
	case 2:
		rw.end = int64(data[(rw.rowPtr+uint64(rw.key+1)*8-blockBase)/8])
		return rw.beginRow()
	default:
		if rw.nextBlk > rw.lastBlk {
			return addrcache.Step{}, &addrcache.Result{Found: true, Words: int(2 * (rw.end - rw.start))}
		}
		st := addrcache.Step{Addr: rw.nextBlk}
		rw.nextBlk += 32
		return st, nil
	}
}

func (rw *rowWalk) beginRow() (addrcache.Step, *addrcache.Result) {
	if rw.end == rw.start {
		return addrcache.Step{}, &addrcache.Result{Found: true, Words: 0}
	}
	rw.stage = 3
	first := rw.cv + uint64(2*rw.start)*8
	last := rw.cv + uint64(2*rw.end-1)*8
	rw.nextBlk = first &^ 31
	rw.lastBlk = last &^ 31
	st := addrcache.Step{Addr: rw.nextBlk}
	rw.nextBlk += 32
	return st, nil
}

// RunAddr measures the address-tagged cache with an ideal walker.
func RunAddr(alg Algorithm, w Work, opt Options) (dsa.Result, error) {
	opt.defaults(alg)
	a := sparse.RMAT(w.N, w.NNZ, w.Seed)
	b := sparse.RMAT(w.N, w.NNZ, w.Seed+1)
	fetch := b
	if alg == Inner {
		fetch = b.Transpose()
	}
	sched := buildSchedule(alg, a, b)

	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	cache := addrcache.New(k, widx.AddrGeometry(opt.Cfg), d.Req, d.Resp, meter)
	eng := addrcache.NewEngine(k, addrcache.EngineConfig{Contexts: opt.Cfg.NumActive}, cache)
	bl := fetch.WriteTo(img)
	al := a.WriteTo(img)
	str := newStreamer(k, img, al.CV, uint64(2*a.NNZ()))
	str.SetBuffer(maxStreamTake(sched) + 8)

	var (
		issue, done int
		busyTil     sim.Cycle
		okAll       = true
	)
	pump := sim.ComponentFunc(func(cy sim.Cycle) {
		for {
			resp, popped := eng.Resp.Pop()
			if !popped {
				break
			}
			done++
			req := sched[resp.ID]
			if resp.Result.Words != 2*fetch.RowNNZ(int(req.key)) {
				okAll = false
			}
			cost := (req.products + lanes - 1) / lanes
			if cost < 1 {
				cost = 1
			}
			if busyTil < cy {
				busyTil = cy
			}
			busyTil += sim.Cycle(cost)
		}
		for issue < len(sched) && issue < done+opt.Lookahead {
			if cy < busyTil && issue > done {
				break
			}
			if !str.Take(sched[issue].streamWords) {
				break
			}
			job := addrcache.Job{ID: uint64(issue),
				W:      &rowWalk{rowPtr: bl.RowPtr, cv: bl.CV, key: sched[issue].key},
				Issued: cy}
			if !eng.Jobs.Push(job) {
				break
			}
			issue++
		}
	})
	k.Add(pump)

	r, err := dsa.Run(k, meter, nil, func() bool { return done == len(sched) }, opt.MaxCycles)
	if err != nil {
		return dsa.Result{}, fmt.Errorf("%s addr: aborted at %d/%d rows: %w", alg, done, len(sched), err)
	}
	r.DSA, r.Workload, r.Kind, r.Checked = string(alg), "p2p-31", dsa.KindAddr, okAll
	return r, nil
}
