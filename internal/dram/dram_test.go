package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xcache/internal/mem"
	"xcache/internal/payload"
	"xcache/internal/sim"
)

func setup(cfg Config) (*sim.Kernel, *mem.Image, *DRAM) {
	k := sim.NewKernel()
	img := mem.NewImage()
	d := New(k, cfg, img)
	return k, img, d
}

func drain(t *testing.T, k *sim.Kernel, d *DRAM, n int) []Response {
	t.Helper()
	var out []Response
	if !k.RunUntil(func() bool {
		for {
			r, ok := d.Resp.Pop()
			if !ok {
				break
			}
			out = append(out, r)
		}
		return len(out) >= n
	}, 100000) {
		t.Fatalf("timed out waiting for %d responses, got %d", n, len(out))
	}
	return out
}

func TestReadReturnsImageData(t *testing.T) {
	k, img, d := setup(DefaultConfig())
	base := img.AllocWords(4)
	img.WriteWords(base, []uint64{10, 20, 30, 40})
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 4})
	rs := drain(t, k, d, 1)
	if rs[0].ID != 1 || rs[0].Data.Len() != 4 || rs[0].Data.Slice()[2] != 30 {
		t.Fatalf("bad response: %+v", rs[0])
	}
}

func TestWriteThenReadBack(t *testing.T) {
	k, img, d := setup(DefaultConfig())
	base := img.AllocWords(2)
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 2, Write: true, Data: payload.Of(5, 6)})
	drain(t, k, d, 1)
	d.Req.MustPush(Request{ID: 2, Addr: base, Words: 2})
	rs := drain(t, k, d, 1)
	if got := rs[0].Data.Slice(); got[0] != 5 || got[1] != 6 {
		t.Fatalf("readback: %v", got)
	}
	if got := d.Stats().Writes; got != 1 {
		t.Fatalf("writes=%d", got)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	// Two reads in the same row: second should be a row hit.
	k, img, d := setup(cfg)
	base := img.AllocWords(1024)
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 1})
	d.Req.MustPush(Request{ID: 2, Addr: base + 64, Words: 1})
	drain(t, k, d, 2)
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("hits=%d misses=%d", st.RowHits, st.RowMisses)
	}

	// Same bank, different rows: both are misses.
	k2, img2, d2 := setup(cfg)
	_ = img2.AllocWords(1 << 20)
	stride := cfg.RowBytes * uint64(cfg.Banks) // same bank, next row
	d2.Req.MustPush(Request{ID: 1, Addr: 0x1000, Words: 1})
	d2.Req.MustPush(Request{ID: 2, Addr: 0x1000 + stride, Words: 1})
	drain(t, k2, d2, 2)
	if d2.Stats().RowHits != 0 {
		t.Fatalf("expected no row hits, got %d", d2.Stats().RowHits)
	}
	if d2.Stats().AvgLatency() <= st.AvgLatency() {
		t.Fatalf("conflict latency %v not worse than hit latency %v",
			d2.Stats().AvgLatency(), st.AvgLatency())
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TBusPerWord = 0 // isolate bank timing from bus serialization

	// 8 accesses to 8 different banks.
	k, img, d := setup(cfg)
	_ = img.AllocWords(1 << 20)
	for i := 0; i < 8; i++ {
		addr := 0x1000 + uint64(i)*cfg.RowBytes // consecutive banks
		d.Req.MustPush(Request{ID: uint64(i), Addr: addr, Words: 1})
	}
	drain(t, k, d, 8)
	parCycles := k.Cycle()

	// 8 accesses to different rows of one bank.
	k2, img2, d2 := setup(cfg)
	_ = img2.AllocWords(1 << 20)
	for i := 0; i < 8; i++ {
		addr := 0x1000 + uint64(i)*cfg.RowBytes*uint64(cfg.Banks)
		d2.Req.MustPush(Request{ID: uint64(i), Addr: addr, Words: 1})
	}
	drain(t, k2, d2, 8)
	serCycles := k2.Cycle()

	if serCycles < parCycles*2 {
		t.Fatalf("bank conflicts (%d cyc) should be ≫ parallel banks (%d cyc)", serCycles, parCycles)
	}
}

func TestLargeBurstOccupiesBus(t *testing.T) {
	cfg := DefaultConfig()
	k, img, d := setup(cfg)
	base := img.AllocWords(64)
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 64})
	drain(t, k, d, 1)
	if d.Stats().BusBusy < 64 {
		t.Fatalf("bus busy %d < burst words 64", d.Stats().BusBusy)
	}
	if d.Stats().WordsRead != 64 {
		t.Fatalf("words read %d", d.Stats().WordsRead)
	}
}

// Property: every admitted request gets exactly one response with matching
// ID, and read responses carry the image contents at request time.
func TestEveryRequestAnswered(t *testing.T) {
	f := func(seed int64, nReq uint8) bool {
		n := int(nReq%32) + 1
		rng := rand.New(rand.NewSource(seed))
		k, img, d := setup(DefaultConfig())
		base := img.AllocWords((100+1)*4096/8 + 64)
		want := map[uint64]uint64{} // id -> expected first word
		for i := 0; i < n; i++ {
			// Unique address per request: a shared address would make the
			// expected value ambiguous.
			off := uint64(i)*8 + uint64(rng.Intn(100))*4096
			img.W64(base+off, uint64(i)+100)
			id := uint64(i)
			want[id] = uint64(i) + 100
			if !d.Req.Push(Request{ID: id, Addr: base + off, Words: 1}) {
				k.Run(200) // allow queue to drain, then retry once
				if !d.Req.Push(Request{ID: id, Addr: base + off, Words: 1}) {
					return false
				}
			}
		}
		got := map[uint64]uint64{}
		ok := k.RunUntil(func() bool {
			for {
				r, popped := d.Resp.Pop()
				if !popped {
					break
				}
				got[r.ID] = r.Data.Slice()[0]
			}
			return len(got) == n
		}, 200000)
		if !ok {
			return false
		}
		for id, w := range want {
			if got[id] != w {
				return false
			}
		}
		return d.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseBackpressureDoesNotDrop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RespDepth = 1
	k, img, d := setup(cfg)
	base := img.AllocWords(64)
	for i := 0; i < 8; i++ {
		d.Req.MustPush(Request{ID: uint64(i), Addr: base + uint64(i)*8, Words: 1})
	}
	// Run a long time without draining: nothing may be lost.
	k.Run(2000)
	seen := 0
	if !k.RunUntil(func() bool {
		for {
			if _, ok := d.Resp.Pop(); !ok {
				break
			}
			seen++
		}
		return seen == 8
	}, 10000) {
		t.Fatalf("lost responses under backpressure: saw %d/8", seen)
	}
}

// scriptedFaults drops or delays specific response IDs.
type scriptedFaults struct {
	drop  map[uint64]bool
	delay map[uint64]int
}

func (f *scriptedFaults) ReadResponse(r Response, c sim.Cycle) (bool, int) {
	if f.drop[r.ID] {
		delete(f.drop, r.ID) // drop only the first attempt
		return true, 0
	}
	return false, f.delay[r.ID]
}

func TestFaultInjectorDropsResponse(t *testing.T) {
	k, img, d := setup(DefaultConfig())
	base := img.AllocWords(2)
	img.WriteWords(base, []uint64{1, 2})
	d.Faults = &scriptedFaults{drop: map[uint64]bool{1: true}}
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 1})
	d.Req.MustPush(Request{ID: 2, Addr: base + 8, Words: 1})
	rs := drain(t, k, d, 1)
	if rs[0].ID != 2 {
		t.Fatalf("got response %d, want only the undropped id 2", rs[0].ID)
	}
	k.Run(1000)
	if _, ok := d.Resp.Pop(); ok {
		t.Fatal("dropped response was still delivered")
	}
	if st := d.Stats(); st.DroppedResps != 1 {
		t.Fatalf("DroppedResps=%d, want 1", st.DroppedResps)
	}
	if !d.Idle() {
		t.Fatal("DRAM not idle after drop: the request leaked")
	}
}

func TestFaultInjectorDelaysResponse(t *testing.T) {
	cfg := DefaultConfig()
	k, img, d := setup(cfg)
	base := img.AllocWords(1)
	img.WriteWords(base, []uint64{77})
	const extra = 40
	d.Faults = &scriptedFaults{delay: map[uint64]int{1: extra}}
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 1})
	var got sim.Cycle
	rs := func() []Response {
		var out []Response
		k.RunUntil(func() bool {
			if r, ok := d.Resp.Pop(); ok {
				out = append(out, r)
				got = k.Cycle()
			}
			return len(out) >= 1
		}, 100000)
		return out
	}()
	if len(rs) != 1 || rs[0].Data.Slice()[0] != 77 {
		t.Fatalf("delayed response wrong: %+v", rs)
	}
	// Re-run without the fault to find the natural latency.
	k2, img2, d2 := setup(cfg)
	base2 := img2.AllocWords(1)
	img2.WriteWords(base2, []uint64{77})
	d2.Req.MustPush(Request{ID: 1, Addr: base2, Words: 1})
	var natural sim.Cycle
	k2.RunUntil(func() bool {
		if _, ok := d2.Resp.Pop(); ok {
			natural = k2.Cycle()
			return true
		}
		return false
	}, 100000)
	if got < natural+extra {
		t.Fatalf("delayed delivery at %d, natural %d + %d extra not honored", got, natural, extra)
	}
	if st := d.Stats(); st.DelayedResps != 1 {
		t.Fatalf("DelayedResps=%d, want 1", st.DelayedResps)
	}
}

func TestDelayedResponseStillCountsPending(t *testing.T) {
	k, img, d := setup(DefaultConfig())
	base := img.AllocWords(1)
	d.Faults = &scriptedFaults{delay: map[uint64]int{1: 500}}
	d.Req.MustPush(Request{ID: 1, Addr: base, Words: 1})
	k.Run(60) // enough for service, not for the injected delay
	if d.Idle() {
		t.Fatal("DRAM claims idle while a delayed response is in flight")
	}
	drain(t, k, d, 1)
}

// A randomized workload under strict protocol checking: the timing model
// must never violate its own tRP/tRCD discipline.
func TestProtocolCheckCleanUnderRandomLoad(t *testing.T) {
	cfg := DefaultConfig()
	k, img, d := setup(cfg)
	d.EnableProtocolCheck()
	base := img.AllocWords(4096)
	rng := rand.New(rand.NewSource(11))
	issued := 0
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		for i := 0; i < 2 && issued < 400; i++ {
			if !d.Req.CanPush() {
				return
			}
			addr := base + uint64(rng.Intn(4096))*8
			d.Req.MustPush(Request{ID: uint64(issued), Addr: addr, Words: 1 + rng.Intn(4)})
			issued++
		}
	}))
	got := 0
	if !k.RunUntil(func() bool {
		for {
			if _, ok := d.Resp.Pop(); !ok {
				break
			}
			got++
		}
		return got >= 400
	}, 1_000_000) {
		t.Fatalf("drained %d/400", got)
	}
	if err := d.CheckInvariants(k.Cycle()); err != nil {
		t.Fatalf("protocol violation on a fault-free run: %v", err)
	}
}

func TestDiagnoseDescribesBanksAndWindow(t *testing.T) {
	k, img, d := setup(DefaultConfig())
	base := img.AllocWords(8)
	d.Req.MustPush(Request{ID: 9, Addr: base, Words: 2})
	k.Run(3)
	if d.DiagnoseName() != "dram" {
		t.Fatalf("DiagnoseName=%q", d.DiagnoseName())
	}
	lines := d.Diagnose()
	if len(lines) < int(DefaultConfig().Banks)+1 {
		t.Fatalf("diagnose too short: %v", lines)
	}
}

// allocsPerRequest counts the allocations of one request, from its push
// to its response being popped, on a channel and image past warm-up.
func allocsPerRequest(req Request) float64 {
	k, img, d := setup(DefaultConfig())
	img.AllocWords(1024)
	img.W64(req.Addr, 1) // the request's page exists
	return testing.AllocsPerRun(200, func() {
		d.Req.MustPush(req)
		for {
			k.Step()
			if r, ok := d.Resp.Pop(); ok {
				r.Data.Release()
				return
			}
		}
	})
}

// Allocation gate: a write allocates nothing per request.
func TestWriteAllocatesNothing(t *testing.T) {
	req := Request{ID: 1, Addr: 0x1040, Words: 4, Write: true, Data: payload.Of(1, 2, 3, 4)}
	if got := allocsPerRequest(req); got != 0 {
		t.Fatalf("write: %v allocations per request, want 0", got)
	}
}

// Allocation gate: a read allocates nothing per request. Its payload
// travels inline in the response.
func TestReadAllocatesOnlyPayload(t *testing.T) {
	req := Request{ID: 1, Addr: 0x1040, Words: 4}
	if got := allocsPerRequest(req); got != 0 {
		t.Fatalf("read: %v allocations per request, want 0", got)
	}
}

// Allocation gate: a read longer than payload.Inline words borrows its
// payload from the channel's pool, and the consumer's release returns
// it, so the next long read allocates nothing either.
func TestLongReadAllocatesNothing(t *testing.T) {
	req := Request{ID: 1, Addr: 0x1040, Words: 40}
	if got := allocsPerRequest(req); got != 0 {
		t.Fatalf("long read: %v allocations per request, want 0", got)
	}
}
