package addrcache

// Allocation gates: in steady state the cache and the engine allocate
// nothing per access, a miss included: the DRAM read payload travels
// inline in the response.

import (
	"testing"

	"xcache/internal/sim"
)

// complete steps k until n responses have popped from c.
func complete(k *sim.Kernel, c *Cache, n int) {
	for n > 0 {
		k.Step()
		for _, ok := c.RespQ.Pop(); ok; _, ok = c.RespQ.Pop() {
			n--
		}
	}
}

func TestHitAllocatesNothing(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 16, Ways: 2})
	base := img.AllocWords(4)
	c.ReqQ.MustPush(Access{Addr: base})
	complete(k, c, 1)
	allocs := testing.AllocsPerRun(100, func() {
		c.ReqQ.MustPush(Access{Addr: base + 8})
		c.ReqQ.MustPush(Access{Addr: base, Write: true, Data: 7})
		complete(k, c, 2)
	})
	if allocs != 0 {
		t.Fatalf("a read and a store hit made %v allocations, want 0", allocs)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want every access after the first to hit", st)
	}
}

// missRig is a one-line cache over a region of fresh blocks: every access
// to the next block misses and evicts a clean line.
func missRig(t *testing.T) (k *sim.Kernel, c *Cache, next func() uint64) {
	k, img, _, c := setup(t, Config{Sets: 1, Ways: 1})
	base := img.AllocWords(4 * 512)
	block := uint64(0)
	return k, c, func() uint64 {
		block++
		return base + block%512*32
	}
}

func TestMissAllocatesOnlyThePayload(t *testing.T) {
	k, c, next := missRig(t)
	allocs := testing.AllocsPerRun(100, func() {
		c.ReqQ.MustPush(Access{Addr: next()})
		complete(k, c, 1)
	})
	if allocs != 0 {
		t.Fatalf("a miss and its fill made %v allocations, want 0", allocs)
	}
}

// Reads only: a store would dirty the line, and the next miss's
// writeback carries a payload of its own.
func TestMSHRMergeAllocatesNothing(t *testing.T) {
	k, c, next := missRig(t)
	allocs := testing.AllocsPerRun(100, func() {
		block := next()
		for i := 0; i < maxWaiters; i++ {
			c.ReqQ.MustPush(Access{ID: uint64(i), Addr: block + uint64(i%4)*8})
		}
		complete(k, c, maxWaiters)
	})
	if allocs != 0 {
		t.Fatalf("a miss with %d merged waiters made %v allocations, want 0", maxWaiters-1, allocs)
	}
	if st := c.Stats(); st.MSHRMerge != (maxWaiters-1)*st.Fills {
		t.Fatalf("stats %+v, want %d merges per fill", st, maxWaiters-1)
	}
}

// awaitJobs steps k until n job responses have popped from e, handing
// each finished walk to put.
func awaitJobs(k *sim.Kernel, e *Engine, n int, put func(Walk)) {
	for n > 0 {
		k.Step()
		for r, ok := e.Resp.Pop(); ok; r, ok = e.Resp.Pop() {
			put(r.W)
			n--
		}
	}
}

func TestWalkStepAllocatesNothing(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 64, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 1}, c)
	head := buildChain(img, []uint64{1, 2, 3, 4, 5})
	w := &chainWalk{}
	walk := func() {
		*w = chainWalk{head: head, target: 5, hash: 2}
		e.Jobs.MustPush(Job{W: w, Issued: k.Cycle()})
		awaitJobs(k, e, 1, func(Walk) {})
	}
	walk() // the chain becomes resident
	steps := e.Stats().Steps
	if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
		t.Fatalf("a 5-step walk over resident blocks made %v allocations, want 0", allocs)
	}
	if got := e.Stats().Steps - steps; got != 101*5 {
		t.Fatalf("%d steps, want 5 per walk", got)
	}
}

func TestRecycledWalkJobAllocatesNothing(t *testing.T) {
	k, img, _, c := setup(t, Config{Sets: 64, Ways: 4})
	e := NewEngine(k, EngineConfig{Contexts: 4}, c)
	heads := make([]uint64, 4)
	for i := range heads {
		heads[i] = buildChain(img, []uint64{uint64(i), uint64(i + 100)})
	}
	var pool WalkPool[chainWalk]
	put := func(w Walk) { pool.Put(w.(*chainWalk)) }
	round := func() {
		for i, h := range heads {
			w := pool.Get()
			*w = chainWalk{head: h, target: uint64(i + 100)}
			e.Jobs.MustPush(Job{ID: uint64(i), W: w, Issued: k.Cycle()})
		}
		awaitJobs(k, e, len(heads), put)
	}
	round() // the pool grows to four walks, and the chains become resident
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("four pump jobs with recycled walks made %v allocations, want 0", allocs)
	}
}
