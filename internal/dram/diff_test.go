package dram

// Lockstep differential test of the per-bank scheduler against the
// window-scan reference (ref_test.go). Two channels with identical
// configuration, memory contents and fault hooks receive the same seeded
// request stream, one cycle at a time, and every observable must match on
// every cycle: queue acceptance, each response popped (ID, Addr, Data and
// cycle), Stats, Pending, Idle, Diagnose and CheckInvariants. Any
// divergence is reported at the first cycle it appears. One request in
// eight is longer than payload.Inline words, so its payload is lent: a
// long write's by the harness, a long read's by the channel. At the end
// every lent buffer is back with its pool.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xcache/internal/mem"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

// diffCase is one differential run.
type diffCase struct {
	seed      int64
	respDepth int  // response queue capacity (1 forces respHold spills)
	faults    bool // drop and delay read responses
	disrupt   bool // outage, stall and burst-latency episodes
	requests  int  // requests offered before the stream stops
}

func (dc diffCase) String() string {
	return fmt.Sprintf("seed=%d resp=%d faults=%v disrupt=%v", dc.seed, dc.respDepth, dc.faults, dc.disrupt)
}

// mix is splitmix64's finalizer: the fault hooks' deterministic hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFaults drops about 1 read response in 16 and delays 1 in 8 by
// 1–40 cycles, as a pure function of (seed, ID, cycle).
type hashFaults struct{ seed uint64 }

func (f hashFaults) ReadResponse(r Response, c sim.Cycle) (bool, int) {
	h := mix(f.seed ^ mix(r.ID) ^ uint64(c))
	switch h % 16 {
	case 0:
		return true, 0
	case 1, 2:
		return false, int(h>>8%40) + 1
	}
	return false, 0
}

// hashDisrupt opens an episode at the start of some 64-cycle epochs,
// lasting 8–31 cycles: an outage, an issue stall or a burst-latency hold
// of 1–20 cycles, as a pure function of (seed, cycle).
type hashDisrupt struct{ seed uint64 }

func (d hashDisrupt) ChannelState(c sim.Cycle) (frozen, stalled bool, extra int) {
	h := mix(d.seed ^ uint64(c)/64)
	if uint64(c)%64 >= 8+h>>8%24 {
		return false, false, 0
	}
	switch h % 8 {
	case 0:
		return true, false, 0
	case 1:
		return false, true, 0
	case 2:
		return false, false, int(h>>16%20) + 1
	}
	return false, false, 0
}

// diffRows is the number of rows per bank the request stream touches.
const diffRows = 4

// runDiff drives the production channel and the reference in lockstep
// through dc's request stream, fails at the first divergence and returns
// the final statistics.
func runDiff(t testing.TB, dc diffCase) Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RespDepth = dc.respDepth
	rng := rand.New(rand.NewSource(dc.seed))

	// Identical memory contents: a quarter of the words are zero.
	region := uint64(diffRows*cfg.Banks) * cfg.RowBytes
	imgN, imgR := mem.NewImage(), mem.NewImage()
	imgN.Alloc(region, cfg.RowBytes)
	imgR.Alloc(region, cfg.RowBytes)
	for a := uint64(0); a < region; a += mem.WordBytes {
		if v := rng.Uint64(); v%4 != 0 {
			imgN.W64(a, v)
			imgR.W64(a, v)
		}
	}

	kN, kR := sim.NewKernel(), sim.NewKernel()
	n, r := New(kN, cfg, imgN), newRef(kR, cfg, imgR)
	n.EnableProtocolCheck()
	r.strict = true
	if dc.faults {
		n.Faults, r.Faults = hashFaults{uint64(dc.seed)}, hashFaults{uint64(dc.seed)}
	}
	if dc.disrupt {
		n.Disrupt, r.Disrupt = hashDisrupt{uint64(dc.seed)}, hashDisrupt{uint64(dc.seed)}
	}

	// Rows cluster on three hot banks; one request in eight goes to any
	// bank.
	hot := rng.Perm(cfg.Banks)[:3]
	// A request is offered to each channel with its own copy of the
	// write data, lent from that channel's side of the harness when long.
	type offer struct {
		req  Request
		data []uint64 // write data, nil for a read
	}
	newReq := func(id uint64) offer {
		bank := hot[rng.Intn(len(hot))]
		if rng.Intn(8) == 0 {
			bank = rng.Intn(cfg.Banks)
		}
		words := 1 + rng.Intn(8)
		if rng.Intn(8) == 0 {
			words = payload.Inline + 1 + rng.Intn(56)
		}
		col := uint64(rng.Intn(int(cfg.RowBytes/mem.WordBytes) - words + 1))
		row := uint64(rng.Intn(diffRows))
		o := offer{req: Request{ID: id, Addr: (row*uint64(cfg.Banks)+uint64(bank))*cfg.RowBytes + col*mem.WordBytes, Words: words}}
		if rng.Intn(3) == 0 {
			o.req.Write = true
			o.data = make([]uint64, words)
			for i := range o.data {
				if rng.Intn(4) != 0 {
					o.data[i] = rng.Uint64()
				}
			}
		}
		return o
	}
	var poolN, poolR payload.Pool // the harness lends long write payloads
	with := func(o *offer, pool *payload.Pool) Request {
		req := o.req
		if o.data != nil {
			req.Data.Set(pool, o.data)
		}
		return req
	}

	var next *offer
	offered := 0
	const drainLimit = 20000 // cycles allowed after the stream stops
	for cy := 0; ; cy++ {
		// Offer a burst of 0–3 requests; a refused one is offered again
		// next cycle, so both channels see the same stream.
		for burst := rng.Intn(4); burst > 0; burst-- {
			if next == nil {
				if offered == dc.requests {
					break
				}
				req := newReq(uint64(offered))
				next = &req
				offered++
			}
			reqN, reqR := with(next, &poolN), with(next, &poolR)
			okN, okR := n.Req.Push(reqN), r.Req.Push(reqR)
			if okN != okR {
				t.Fatalf("%v cycle %d: request %d accepted %v by per-bank, %v by reference", dc, cy, next.req.ID, okN, okR)
			}
			if !okN {
				// A refused request stays with its producer.
				reqN.Data.Release()
				reqR.Data.Release()
				break
			}
			next = nil
		}
		kN.Step()
		kR.Step()

		// The consumer drains a depth-1 queue on half the cycles only.
		pops := 64
		if dc.respDepth == 1 && rng.Intn(2) == 0 {
			pops = 0
		}
		for ; pops > 0; pops-- {
			rn, okN := n.Resp.Pop()
			rr, okR := r.Resp.Pop()
			if okN != okR {
				t.Fatalf("%v cycle %d: response popped %v by per-bank (%+v), %v by reference (%+v)", dc, cy, okN, rn, okR, rr)
			}
			if !okN {
				break
			}
			if rn.ID != rr.ID || rn.Addr != rr.Addr || !slices.Equal(rn.Data.Slice(), rr.Data.Slice()) {
				t.Fatalf("%v cycle %d: response\n  per-bank  %+v\n  reference %+v", dc, cy, rn, rr)
			}
			if slices.Contains(rn.Data.Slice(), payload.PoisonWord) {
				t.Fatalf("%v cycle %d: response %d carries a poisoned word: %v", dc, cy, rn.ID, rn.Data.Slice())
			}
			rn.Data.Release()
			rr.Data.Release()
		}

		if sn, sr := n.Stats(), r.Stats(); sn != sr {
			t.Fatalf("%v cycle %d: Stats\n  per-bank  %+v\n  reference %+v", dc, cy, sn, sr)
		}
		if n.Pending() != r.Pending() || n.Idle() != r.Idle() {
			t.Fatalf("%v cycle %d: Pending/Idle %d/%v per-bank, %d/%v reference", dc, cy, n.Pending(), n.Idle(), r.Pending(), r.Idle())
		}
		if dn, dr := n.Diagnose(), r.Diagnose(); !reflect.DeepEqual(dn, dr) {
			t.Fatalf("%v cycle %d: Diagnose\n  per-bank  %q\n  reference %q", dc, cy, dn, dr)
		}
		en, er := n.CheckInvariants(kN.Cycle()), r.CheckInvariants(kR.Cycle())
		if fmt.Sprint(en) != fmt.Sprint(er) {
			t.Fatalf("%v cycle %d: CheckInvariants %v per-bank, %v reference", dc, cy, en, er)
		}
		if en != nil {
			t.Fatalf("%v cycle %d: invariant violated: %v", dc, cy, en)
		}

		if offered == dc.requests && next == nil && n.Idle() && n.Resp.Len() == 0 {
			break
		}
		if cy > dc.requests*4+drainLimit {
			t.Fatalf("%v: not drained after %d cycles (%d pending)", dc, cy, n.Pending())
		}
	}
	for a := uint64(0); a < region; a += mem.WordBytes {
		if vn, vr := imgN.R64(a), imgR.R64(a); vn != vr || vn == payload.PoisonWord {
			t.Fatalf("%v: memory word %#x is %#x per-bank, %#x reference", dc, a, vn, vr)
		}
	}
	if err := payload.Audit([]sim.Component{n}); err != nil {
		t.Fatalf("%v: %v", dc, err)
	}
	if poolN.Lent() != 0 || poolR.Lent() != 0 || r.pool.Lent() != 0 {
		t.Fatalf("%v: write buffers still lent: %d per-bank, %d reference; reference read buffers %d",
			dc, poolN.Lent(), poolR.Lent(), r.pool.Lent())
	}
	return n.Stats()
}

func TestSchedDiffLockstep(t *testing.T) {
	seed := int64(0)
	for _, respDepth := range []int{1, 64} {
		for _, faults := range []bool{false, true} {
			for _, disrupt := range []bool{false, true} {
				seed++
				dc := diffCase{seed: seed, respDepth: respDepth, faults: faults, disrupt: disrupt, requests: 400}
				t.Run(dc.String(), func(t *testing.T) {
					st := runDiff(t, dc)
					// The stream must reach what it is meant to exercise.
					if st.RowHits == 0 || st.RowMisses == 0 || st.Writes == 0 || st.PeakPending < DefaultConfig().WindowDepth {
						t.Errorf("stream too tame: %+v", st)
					}
					if faults && (st.DroppedResps == 0 || st.DelayedResps == 0) {
						t.Errorf("no response faults fired: %+v", st)
					}
					if disrupt && (st.OutageCycles == 0 || st.StallCycles == 0 || st.BurstDelays == 0) {
						t.Errorf("not every episode kind fired: %+v", st)
					}
				})
			}
		}
	}
}

// FuzzDRAMSched runs the differential harness on fuzzer-chosen streams;
// testdata/fuzz/FuzzDRAMSched holds the committed seed corpus. Every
// input runs with the payload poison hook on, so a channel that reads a
// write payload after releasing it writes poison into memory, and a
// consumer handed a released read buffer sees poison in its response.
func FuzzDRAMSched(f *testing.F) {
	payload.SetPoison(true)
	defer payload.SetPoison(false)
	f.Fuzz(func(t *testing.T, seed int64, respDepth uint8, faults, disrupt bool) {
		runDiff(t, diffCase{seed: seed, respDepth: 1 + int(respDepth%64), faults: faults, disrupt: disrupt, requests: 300})
	})
}
