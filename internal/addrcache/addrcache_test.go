package addrcache

import (
	"testing"

	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/sim"
)

func setup(t *testing.T, cfg Config) (*sim.Kernel, *mem.Image, *dram.DRAM, *Cache) {
	t.Helper()
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	c := New(k, cfg, d.Req, d.Resp, &energy.Counters{})
	return k, img, d, c
}

func await(t *testing.T, k *sim.Kernel, c *Cache, n int) []AccessResp {
	t.Helper()
	var out []AccessResp
	if !k.RunUntil(func() bool {
		for {
			r, ok := c.RespQ.Pop()
			if !ok {
				break
			}
			out = append(out, r)
		}
		return len(out) >= n
	}, 100000) {
		t.Fatalf("timeout: %d/%d responses", len(out), n)
	}
	return out
}

func TestMissThenHit(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(8)
	img.WriteWords(base, []uint64{1, 2, 3, 4, 5, 6, 7, 8})

	c.ReqQ.MustPush(Access{ID: 0, Addr: base + 8, Issued: k.Cycle()})
	r := await(t, k, c, 1)[0]
	if r.Data[1] != 2 {
		t.Fatalf("miss data: %v", r.Data)
	}
	missCycles := k.Cycle()

	start := k.Cycle()
	c.ReqQ.MustPush(Access{ID: 1, Addr: base, Issued: k.Cycle()})
	r = await(t, k, c, 1)[0]
	if r.Data[0] != 1 {
		t.Fatalf("hit data: %v", r.Data)
	}
	hitCycles := k.Cycle() - start
	if uint64(hitCycles) >= uint64(missCycles) {
		t.Fatalf("hit (%d) not faster than miss (%d)", hitCycles, missCycles)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMSHRMergesSameBlock(t *testing.T) {
	k, img, d, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(4)
	img.W64(base, 99)
	c.ReqQ.MustPush(Access{ID: 0, Addr: base, Issued: 0})
	c.ReqQ.MustPush(Access{ID: 1, Addr: base + 16, Issued: 0})
	rs := await(t, k, c, 2)
	if rs[0].Data[0] != 99 || rs[1].Data[0] != 99 {
		t.Fatalf("merged responses: %+v", rs)
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("dram reads %d, want 1 (MSHR merge)", d.Stats().Reads)
	}
	if c.Stats().MSHRMerge != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestEvictionLRU(t *testing.T) {
	// 1 set, 1 way: every distinct block evicts the previous one.
	k, img, d, c := setup(t, Config{Sets: 1, Ways: 1})
	base := img.AllocWords(64)
	for i := 0; i < 3; i++ {
		img.W64(base+uint64(i)*32, uint64(i))
		c.ReqQ.MustPush(Access{ID: uint64(i), Addr: base + uint64(i)*32, Issued: 0})
		await(t, k, c, 1)
	}
	// Re-access block 0: must miss again.
	c.ReqQ.MustPush(Access{ID: 9, Addr: base, Issued: 0})
	await(t, k, c, 1)
	if d.Stats().Reads != 4 {
		t.Fatalf("dram reads %d, want 4", d.Stats().Reads)
	}
}

// chainWalk follows a linked list laid out as [next, value] nodes until
// value == target, mimicking a hash-bucket walk.
type chainWalk struct {
	head   uint64
	target uint64
	cur    uint64
	hash   int
	state  int
}

func (w *chainWalk) Next(blockBase uint64, data []uint64) (Step, Result, bool) {
	switch w.state {
	case 0: // issue head load, after optional hash compute
		w.state = 1
		w.cur = w.head
		return Step{Addr: w.head, ComputeCycles: w.hash}, Result{}, false
	default:
		off := (w.cur - blockBase) / 8
		next, val := data[off], data[off+1]
		if val == w.target {
			return Step{}, Result{Found: true, Value: val, Words: 1}, true
		}
		if next == 0 {
			return Step{}, Result{Found: false}, true
		}
		w.cur = next
		return Step{Addr: next}, Result{}, false
	}
}

// buildChain lays out a 2-word-node chain with the given values, aligned
// to 32 bytes so every node is a single block access.
func buildChain(img *mem.Image, vals []uint64) uint64 {
	nodes := make([]uint64, len(vals))
	for i := range vals {
		nodes[i] = img.Alloc(16, 32)
	}
	for i, v := range vals {
		next := uint64(0)
		if i+1 < len(vals) {
			next = nodes[i+1]
		}
		img.W64(nodes[i], next)
		img.W64(nodes[i]+8, v)
	}
	return nodes[0]
}

func TestEngineChainWalk(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 2}, c)
	head := buildChain(img, []uint64{10, 20, 30, 40})

	e.Jobs.MustPush(Job{ID: 1, W: &chainWalk{head: head, target: 30}, Issued: k.Cycle()})
	var resp JobResp
	if !k.RunUntil(func() bool {
		r, ok := e.Resp.Pop()
		if ok {
			resp = r
		}
		return ok
	}, 100000) {
		t.Fatal("walk did not complete")
	}
	if !resp.Result.Found || resp.Result.Value != 30 {
		t.Fatalf("result %+v", resp.Result)
	}
	if e.Stats().Steps != 3 {
		t.Fatalf("steps %d, want 3 (head, node2, node3)", e.Stats().Steps)
	}
}

func TestEngineNotFoundAndComputeCost(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 1}, c)
	head := buildChain(img, []uint64{1, 2})

	// Without hash cost.
	e.Jobs.MustPush(Job{ID: 1, W: &chainWalk{head: head, target: 99}, Issued: k.Cycle()})
	var r JobResp
	k.RunUntil(func() bool { rr, ok := e.Resp.Pop(); r = rr; return ok }, 100000)
	if r.Result.Found {
		t.Fatal("found nonexistent value")
	}
	fast := e.Stats().L2USum

	// With a 60-cycle hash: latency grows by exactly the compute cost
	// (cache state identical: chain now resident).
	e.Jobs.MustPush(Job{ID: 2, W: &chainWalk{head: head, target: 99, hash: 60}, Issued: k.Cycle()})
	k.RunUntil(func() bool { _, ok := e.Resp.Pop(); return ok }, 100000)
	slowDelta := e.Stats().L2USum - fast
	if slowDelta < 60 {
		t.Fatalf("hash cost not reflected: delta %d", slowDelta)
	}
	if e.Stats().ComputeCycles != 60 {
		t.Fatalf("compute cycles %d", e.Stats().ComputeCycles)
	}
}

func TestEngineParallelContexts(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 64, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 4}, c)
	heads := make([]uint64, 8)
	for i := range heads {
		heads[i] = buildChain(img, []uint64{uint64(i), uint64(i + 100)})
	}
	for i, h := range heads {
		e.Jobs.MustPush(Job{ID: uint64(i), W: &chainWalk{head: h, target: uint64(i + 100)}, Issued: k.Cycle()})
	}
	got := 0
	if !k.RunUntil(func() bool {
		for {
			if _, ok := e.Resp.Pop(); !ok {
				break
			}
			got++
		}
		return got == 8
	}, 200000) {
		t.Fatalf("only %d/8 walks completed", got)
	}
	if !e.Idle() || !c.Idle() {
		t.Fatal("engine or cache not idle after drain")
	}
}

func TestWalkAlwaysWalksEvenWhenResident(t *testing.T) {
	// The address-tag pathology (§3.1): after caching the whole chain, a
	// repeat probe still performs every walk step.
	k, img, _, c := setup(t, Config{Sets: 64, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 1}, c)
	head := buildChain(img, []uint64{1, 2, 3, 4, 5})
	for i := 0; i < 2; i++ {
		e.Jobs.MustPush(Job{ID: uint64(i), W: &chainWalk{head: head, target: 5}, Issued: k.Cycle()})
		k.RunUntil(func() bool { _, ok := e.Resp.Pop(); return ok }, 100000)
	}
	if e.Stats().Steps != 10 {
		t.Fatalf("steps %d, want 10 (5 per probe, both probes walk)", e.Stats().Steps)
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("second probe should hit in the cache while still walking")
	}
}

func TestWriteHitAndReadback(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(4)
	img.W64(base, 5)
	// Load the block, then store over word 0, then read it back.
	c.ReqQ.MustPush(Access{ID: 0, Addr: base, Issued: 0})
	await(t, k, c, 1)
	c.ReqQ.MustPush(Access{ID: 1, Addr: base, Write: true, Data: 99, Issued: 0})
	await(t, k, c, 1)
	c.ReqQ.MustPush(Access{ID: 2, Addr: base, Issued: 0})
	r := await(t, k, c, 1)[0]
	if r.Data[0] != 99 {
		t.Fatalf("readback after store: %d", r.Data[0])
	}
	if c.Stats().Writebacks != 0 {
		t.Fatal("no eviction yet, no writeback expected")
	}
}

func TestWriteAllocateOnMiss(t *testing.T) {
	k, img, d, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(4)
	img.WriteWords(base, []uint64{1, 2, 3, 4})
	c.ReqQ.MustPush(Access{ID: 0, Addr: base + 8, Write: true, Data: 77, Issued: 0})
	r := await(t, k, c, 1)[0]
	if r.Data[1] != 77 || r.Data[0] != 1 {
		t.Fatalf("write-allocate merged wrong: %v", r.Data)
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("write-allocate should fetch the block once: %d", d.Stats().Reads)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// 1 set, 1 way: storing then touching another block evicts dirty data.
	k, img, d, c := setup(t, Config{Sets: 1, Ways: 1})
	base := img.AllocWords(16)
	c.ReqQ.MustPush(Access{ID: 0, Addr: base, Write: true, Data: 42, Issued: 0})
	await(t, k, c, 1)
	c.ReqQ.MustPush(Access{ID: 1, Addr: base + 64, Issued: 0}) // conflicting block
	await(t, k, c, 1)
	if !k.RunUntil(func() bool { return d.Idle() }, 10000) {
		t.Fatal("writeback never drained")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks %d", c.Stats().Writebacks)
	}
	if img.R64(base) != 42 {
		t.Fatalf("dirty data lost: %d", img.R64(base))
	}
	// Re-reading must return the written value from memory.
	c.ReqQ.MustPush(Access{ID: 2, Addr: base, Issued: 0})
	if r := await(t, k, c, 1)[0]; r.Data[0] != 42 {
		t.Fatalf("readback after writeback: %d", r.Data[0])
	}
}

func TestRefusedWritebackKeepsDirtyLine(t *testing.T) {
	// 1 set, 1 way: B's fill evicts dirty A, while memory refuses every
	// push. The fill must wait for the writeback instead of dropping A.
	k, img, d, c := setup(t, Config{Sets: 1, Ways: 1})
	base := img.AllocWords(16)
	img.W64(base, 1)
	c.ReqQ.MustPush(Access{ID: 0, Addr: base, Write: true, Data: 42})
	await(t, k, c, 1)

	c.ReqQ.MustPush(Access{ID: 1, Addr: base + 64})
	if !k.RunUntil(func() bool { return c.Stats().Misses == 2 }, 100) {
		t.Fatal("miss on B never issued")
	}
	clogged := true
	d.Req.SetClog(func() bool { return clogged })
	k.Run(500) // B's fill arrives and finds memory refusing A's writeback
	if n := c.RespQ.Len(); n != 0 || c.Stats().Fills != 1 {
		t.Fatalf("B answered (%d responses, %d fills) while A's writeback was refused", n, c.Stats().Fills)
	}
	clogged = false
	if r := await(t, k, c, 1)[0]; r.ID != 1 {
		t.Fatalf("response %d, want B's", r.ID)
	}
	c.ReqQ.MustPush(Access{ID: 2, Addr: base})
	if r := await(t, k, c, 1)[0]; r.Data[0] != 42 || c.Stats().Writebacks != 1 {
		t.Fatalf("A reads %d with %d writebacks, want 42 with 1", r.Data[0], c.Stats().Writebacks)
	}
}
