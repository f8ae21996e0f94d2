package addrcache

// Lockstep differential test of the cache and walk engine against the
// reference (ref_test.go). Two rigs with identical geometry, memory
// contents and clog hooks receive the same seeded stream, one cycle at a
// time, and every observable must match on every cycle: queue
// acceptance, each DRAM request the cache issues, each AccessResp and
// JobResp popped (and so its cycle), Stats, EngineStats, the L2U sums,
// the energy counters and Idle. Any divergence is reported at the first
// cycle it appears.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

// diffCase is one differential run.
type diffCase struct {
	seed       int64
	blockWords int  // 4 or 8
	engine     bool // walks through the engine, else raw reads and stores
	contexts   int  // engine contexts
	clog       bool // ReqQ and MemReq refuse pushes on some cycles
	items      int  // accesses or jobs offered before the stream stops
}

func (dc diffCase) String() string {
	mode := "raw"
	if dc.engine {
		mode = fmt.Sprintf("engine%d", dc.contexts)
	}
	return fmt.Sprintf("seed=%d block=%d %s clog=%v", dc.seed, dc.blockWords, mode, dc.clog)
}

// Geometry of the differential rigs: 8 lines over a 48-block region, so
// the stream keeps evicting.
const (
	diffSets   = 4
	diffWays   = 2
	diffBlocks = 48
	diffHot    = 10 // blocks most accesses go to
	memDepth   = 4  // the cache's memory request queue
)

// mix is splitmix64's finalizer: the clog hooks' and walks' hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clogHook refuses pushes on about one cycle in four, as a pure function
// of (seed, salt, cycle), so it is stable within a cycle.
func clogHook(k *sim.Kernel, seed, salt uint64) func() bool {
	return func() bool { return mix(seed^salt^mix(uint64(k.Cycle())))%4 == 0 }
}

// diffWalk chases addresses derived from the words it has read: each
// step's address and compute time hash the blocks before it, so a wrong
// word or base changes the rest of the walk and its result.
type diffWalk struct {
	id     uint64
	h      uint64
	steps  int // address loads left
	words  int
	region uint64
	bw     int // block words
}

func (w *diffWalk) Next(blockBase uint64, data []uint64) (Step, Result, bool) {
	if data != nil {
		w.h = mix(w.h ^ blockBase)
		for _, v := range data {
			w.h = mix(w.h ^ v)
		}
		w.words += len(data)
	}
	if w.steps == 0 {
		return Step{}, Result{Found: w.h&1 == 1, Value: w.h, Words: w.words}, true
	}
	w.steps--
	w.h = mix(w.h)
	block := w.h % diffBlocks
	if w.h>>8%4 != 0 {
		block %= diffHot
	}
	st := Step{Addr: w.region + block*uint64(w.bw)*8 + w.h>>16%uint64(w.bw)*8}
	if w.h>>24%3 == 0 {
		st.ComputeCycles = int(w.h>>32%6) + 1
	}
	return st, Result{}, false
}

// refWalkOf adapts a diffWalk to the reference engine's walk interface.
type refWalkOf struct{ w *diffWalk }

func (a refWalkOf) Next(blockBase uint64, data []uint64) (Step, *Result) {
	st, res, done := a.w.Next(blockBase, data)
	if done {
		return st, &res
	}
	return st, nil
}

// diffReach counts what a stream exercised, read off the production rig.
type diffReach struct {
	maxWaiters int // most accesses one MSHR held
	mshrFull   int // cycles with every MSHR in use
	fillWaits  int // cycles a fill stayed in MemResp behind a refused writeback
	respFull   int // cycles RespQ was full
	invals     int // InvalidateAll calls
	clogs      int // refused pushes on a clogged queue
}

// runDiff drives the production cache (and engine) and the reference in
// lockstep through dc's stream, fails at the first divergence and
// returns the production statistics and what the stream reached.
func runDiff(t testing.TB, dc diffCase) (Stats, EngineStats, diffReach) {
	t.Helper()
	rng := rand.New(rand.NewSource(dc.seed))
	cfg := Config{Sets: diffSets, Ways: diffWays, BlockWords: dc.blockWords}
	bb := uint64(dc.blockWords) * 8

	// Identical memory contents: a quarter of the words are zero.
	imgN, imgR := mem.NewImage(), mem.NewImage()
	region := imgN.Alloc(diffBlocks*bb, bb)
	imgR.Alloc(diffBlocks*bb, bb)
	for a := region; a < region+diffBlocks*bb; a += mem.WordBytes {
		if v := rng.Uint64(); v%4 != 0 {
			imgN.W64(a, v)
			imgR.W64(a, v)
		}
	}

	kN, kR := sim.NewKernel(), sim.NewKernel()
	dN, dR := dram.New(kN, dram.DefaultConfig(), imgN), dram.New(kR, dram.DefaultConfig(), imgR)
	mqN := sim.NewQueue[dram.Request](kN, "ac.mem", memDepth)
	mqR := sim.NewQueue[dram.Request](kR, "ac.mem", memDepth)
	n := New(kN, cfg, mqN, dN.Resp, &energy.Counters{})
	r := newRefCache(kR, cfg, mqR, dR.Resp, &energy.Counters{})
	var en *Engine
	var er *refEngine
	if dc.engine {
		en = NewEngine(kN, EngineConfig{Contexts: dc.contexts}, n)
		er = newRefEngine(kR, EngineConfig{Contexts: dc.contexts}, r)
	}
	var reach diffReach
	if dc.clog {
		seed := uint64(dc.seed)
		for _, q := range []struct {
			n, r sim.Clogger
			salt uint64
		}{{n.ReqQ, r.ReqQ, 1}, {mqN, mqR, 2}} {
			hn, hr := clogHook(kN, seed, q.salt), clogHook(kR, seed, q.salt)
			q.n.SetClog(func() bool {
				c := hn()
				if c {
					reach.clogs++
				}
				return c
			})
			q.r.SetClog(hr)
		}
	}

	// The raw stream: accesses wait in offer until ReqQ takes them.
	var offer []Access
	var nextID uint64
	access := func(block uint64, cy int) Access {
		a := Access{ID: nextID, Addr: region + block*bb + uint64(rng.Intn(dc.blockWords))*8, Issued: sim.Cycle(cy)}
		nextID++
		if rng.Intn(3) == 0 {
			a.Write, a.Data = true, rng.Uint64()
		}
		return a
	}
	randBlock := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(diffBlocks))
		}
		return uint64(rng.Intn(diffHot))
	}

	// The engine stream: production walks are recycled, so a JobResp
	// must hand back the very walk its job carried.
	var pool WalkPool[diffWalk]
	inFlight := map[uint64]*diffWalk{}
	var nextJob *diffWalk
	newWalk := func(id uint64) (*diffWalk, refWalkOf) {
		h, steps := rng.Uint64(), 1+rng.Intn(5)
		w := pool.Get()
		*w = diffWalk{id: id, h: h, steps: steps, region: region, bw: dc.blockWords}
		return w, refWalkOf{&diffWalk{id: id, h: h, steps: steps, region: region, bw: dc.blockWords}}
	}
	var nextRef refWalkOf

	offered := 0
	holdPops := 0 // raw mode: cycles left on which the consumer pops nothing
	const drainLimit = 20000
	for cy := 0; ; cy++ {
		if !dc.engine {
			if offered < dc.items && len(offer) < 48 {
				switch x := rng.Intn(100); {
				case x < 4: // up to 12 accesses to one block: MSHR merges to the cap
					b := randBlock()
					for i := 2 + rng.Intn(11); i > 0; i-- {
						offer = append(offer, access(b, cy))
					}
				case x < 7: // 20 distinct blocks: every MSHR in use
					for _, b := range rng.Perm(diffBlocks)[:20] {
						offer = append(offer, access(uint64(b), cy))
					}
				case x < 9:
					n.InvalidateAll()
					r.InvalidateAll()
					reach.invals++
				default:
					for i := rng.Intn(3); i > 0; i-- {
						offer = append(offer, access(randBlock(), cy))
					}
				}
				offered++
			}
			for len(offer) > 0 {
				okN, okR := n.ReqQ.Push(offer[0]), r.ReqQ.Push(offer[0])
				if okN != okR {
					t.Fatalf("%v cycle %d: access %d accepted %v by production, %v by reference", dc, cy, offer[0].ID, okN, okR)
				}
				if !okN {
					break
				}
				offer = offer[1:]
			}
		} else {
			if rng.Intn(3) == 0 && nextJob == nil && offered < dc.items {
				nextJob, nextRef = newWalk(uint64(offered))
				offered++
			}
			if rng.Intn(400) == 0 && offered < dc.items {
				n.InvalidateAll()
				r.InvalidateAll()
				reach.invals++
			}
			if nextJob != nil {
				okN := en.Jobs.Push(Job{ID: nextJob.id, W: nextJob, Issued: sim.Cycle(cy)})
				okR := er.Jobs.Push(refJob{ID: nextJob.id, W: nextRef, Issued: sim.Cycle(cy)})
				if okN != okR {
					t.Fatalf("%v cycle %d: job %d accepted %v by production, %v by reference", dc, cy, nextJob.id, okN, okR)
				}
				if okN {
					inFlight[nextJob.id] = nextJob
					nextJob = nil
				}
			}
		}

		fillsBefore, popsBefore := n.MemResp.Len(), n.MemResp.Pops()
		kN.Step()
		kR.Step()
		if int(n.MemResp.Pops()-popsBefore) < fillsBefore {
			reach.fillWaits++
		}
		if n.busy == numMSHRs {
			reach.mshrFull++
		}
		for i := range n.mshrs {
			if n.mshrs[i].valid {
				reach.maxWaiters = max(reach.maxWaiters, n.mshrs[i].n)
			}
		}
		if n.RespQ.Len() == respDepth {
			reach.respFull++
		}

		// Forward 0–2 memory requests to DRAM, comparing each.
		for fwd := rng.Intn(3); fwd > 0 && dN.Req.CanPush(); fwd-- {
			qn, okN := mqN.Pop()
			qr, okR := mqR.Pop()
			if okN != okR {
				t.Fatalf("%v cycle %d: memory request popped %v by production (%+v), %v by reference (%+v)", dc, cy, okN, qn, okR, qr)
			}
			if !okN {
				break
			}
			if qn.ID != qr.ID || qn.Addr != qr.Addr || qn.Words != qr.Words || qn.Write != qr.Write || !slices.Equal(qn.Data.Slice(), qr.Data.Slice()) {
				t.Fatalf("%v cycle %d: memory request\n  production %+v\n  reference  %+v", dc, cy, qn, qr)
			}
			dN.Req.MustPush(qn)
			dR.Req.MustPush(qr)
		}

		if dc.engine {
			for {
				jn, okN := en.Resp.Pop()
				jr, okR := er.Resp.Pop()
				if okN != okR {
					t.Fatalf("%v cycle %d: job response popped %v by production (%+v), %v by reference (%+v)", dc, cy, okN, jn, okR, jr)
				}
				if !okN {
					break
				}
				if jn.ID != jr.ID || jn.Result != jr.Result {
					t.Fatalf("%v cycle %d: job response\n  production %+v\n  reference  %+v", dc, cy, jn, jr)
				}
				if w := inFlight[jn.ID]; jn.W != Walk(w) {
					t.Fatalf("%v cycle %d: job %d handed back walk %p, want %p", dc, cy, jn.ID, jn.W, w)
				}
				delete(inFlight, jn.ID)
				pool.Put(jn.W.(*diffWalk))
			}
		} else {
			// Now and then the consumer stops popping until RespQ fills
			// (or for at most 600 cycles), so deliver meets a full queue.
			if holdPops > 0 && n.RespQ.Len() < respDepth {
				holdPops--
			} else if holdPops > 0 {
				holdPops = 0
			} else if rng.Intn(300) == 0 {
				holdPops = 600
			}
			for holdPops == 0 {
				an, okN := n.RespQ.Pop()
				ar, okR := r.RespQ.Pop()
				if okN != okR {
					t.Fatalf("%v cycle %d: response popped %v by production (%+v), %v by reference (%+v)", dc, cy, okN, an, okR, ar)
				}
				if !okN {
					break
				}
				if an.ID != ar.ID || an.BlockBase != ar.BlockBase || !slices.Equal(an.Data[:an.Words], ar.Data) {
					t.Fatalf("%v cycle %d: response\n  production id=%d base=%#x data=%x\n  reference  id=%d base=%#x data=%x",
						dc, cy, an.ID, an.BlockBase, an.Data[:an.Words], ar.ID, ar.BlockBase, ar.Data)
				}
			}
		}

		if sn, sr := n.Stats(), r.Stats(); sn != sr {
			t.Fatalf("%v cycle %d: Stats\n  production %+v\n  reference  %+v", dc, cy, sn, sr)
		}
		if n.L2USum != r.L2USum || n.L2UCount != r.L2UCount {
			t.Fatalf("%v cycle %d: L2U %d/%d production, %d/%d reference", dc, cy, n.L2USum, n.L2UCount, r.L2USum, r.L2UCount)
		}
		if *n.Meter != *r.Meter {
			t.Fatalf("%v cycle %d: energy counters\n  production %+v\n  reference  %+v", dc, cy, *n.Meter, *r.Meter)
		}
		if n.Idle() != r.Idle() {
			t.Fatalf("%v cycle %d: Idle %v production, %v reference", dc, cy, n.Idle(), r.Idle())
		}
		idle := n.Idle() && dN.Idle() && mqN.Len() == 0 && n.RespQ.Len() == 0
		if dc.engine {
			if sn, sr := en.Stats(), er.Stats(); sn != sr {
				t.Fatalf("%v cycle %d: EngineStats\n  production %+v\n  reference  %+v", dc, cy, sn, sr)
			}
			if en.Idle() != er.Idle() {
				t.Fatalf("%v cycle %d: engine Idle %v production, %v reference", dc, cy, en.Idle(), er.Idle())
			}
			idle = idle && en.Idle() && en.Resp.Len() == 0 && nextJob == nil
		}
		if offered == dc.items && len(offer) == 0 && idle {
			break
		}
		if cy > dc.items*500+drainLimit {
			t.Fatalf("%v: not drained after %d cycles", dc, cy)
		}
	}
	for a := region; a < region+diffBlocks*bb; a += mem.WordBytes {
		if vn, vr := imgN.R64(a), imgR.R64(a); vn != vr || vn == payload.PoisonWord {
			t.Fatalf("%v: memory word %#x is %#x production, %#x reference", dc, a, vn, vr)
		}
	}
	if err := payload.Audit(kN.Components()); err != nil {
		t.Fatalf("%v: %v", dc, err)
	}
	var es EngineStats
	if en != nil {
		es = en.Stats()
	}
	return n.Stats(), es, reach
}

func TestAddrCacheDiffLockstep(t *testing.T) {
	seed := int64(0)
	for _, engine := range []bool{false, true} {
		for _, clog := range []bool{false, true} {
			for _, bw := range []int{4, 8} {
				seed++
				dc := diffCase{seed: seed, blockWords: bw, engine: engine, contexts: 2 + int(seed)%7, clog: clog, items: 2000}
				t.Run(dc.String(), func(t *testing.T) {
					st, es, reach := runDiff(t, dc)
					// The stream must reach what it is meant to exercise.
					if st.Hits == 0 || st.MSHRMerge == 0 || st.Fills == 0 || reach.invals == 0 {
						t.Errorf("stream too tame: %+v %+v", st, reach)
					}
					// The engine has at most 8 contexts, so only raw
					// streams can fill the 16 MSHRs.
					if !engine && (reach.maxWaiters < maxWaiters || reach.mshrFull == 0 || st.Writebacks == 0 || reach.respFull == 0) {
						t.Errorf("raw stream missed the waiter cap, full MSHRs, writebacks or a full RespQ: %+v %+v", st, reach)
					}
					if engine && (es.Jobs != uint64(dc.items) || es.ComputeCycles == 0) {
						t.Errorf("engine stream too tame: %+v", es)
					}
					if clog && reach.clogs == 0 {
						t.Errorf("no push refused by a clog: %+v", reach)
					}
					if clog && !engine && reach.fillWaits == 0 {
						t.Errorf("no fill waited behind a refused writeback: %+v %+v", st, reach)
					}
				})
			}
		}
	}
}

// FuzzAddrCache runs the differential harness on fuzzer-chosen streams;
// testdata/fuzz/FuzzAddrCache holds the committed seed corpus.
func FuzzAddrCache(f *testing.F) {
	payload.SetPoison(true)
	defer payload.SetPoison(false)
	f.Fuzz(func(t *testing.T, seed int64, block8, engine bool, contexts uint8, clog bool) {
		bw := 4
		if block8 {
			bw = 8
		}
		runDiff(t, diffCase{seed: seed, blockWords: bw, engine: engine, contexts: 1 + int(contexts%8), clog: clog, items: 300})
	})
}
