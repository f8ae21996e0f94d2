package hier

import (
	"testing"

	"xcache/internal/check"
	"xcache/internal/core"
	"xcache/internal/ctrl"
	"xcache/internal/dram"
	"xcache/internal/energy"
	"xcache/internal/mem"
	"xcache/internal/metatag"
	"xcache/internal/sim"
)

// cohLoop drives every port of a coherent system without allocating,
// keeping depth ops in flight per port. Ports walk 32 keys at different
// strides, two ops per key: two loads, or a load and a merge of 1. The
// second op of a pair hits or upgrades the copy the first brought in;
// with more than one op in flight it can also join the first's miss,
// so MSHRs gather waiters and a merge queued behind a read grant goes
// back for ownership. The L1s hold 4 entries and the L2 8, so lines are
// read-shared, migrate between owners, leave the L1s and are recalled
// when the L2 evicts them.
type cohLoop struct {
	s        *CohSystem
	depth    int
	next     [4]uint64
	inFlight [4]int
	merges   [cohLoopKeys]uint64 // merges issued per key
}

const cohLoopKeys = 32

func newCohLoop(t *testing.T, depth int) *cohLoop {
	s, err := NewCohSystem(CohConfig{
		Ports:   4,
		L1:      L1Config{Sets: 2, Ways: 2, WordsPerSector: 1},
		L2Sets:  4,
		L2Ways:  2,
		NumKeys: cohLoopKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &cohLoop{s: s, depth: depth}
}

// issue collects every port's answers and tops its ops in flight up.
func (c *cohLoop) issue() {
	for p, l1 := range c.s.Ports {
		for {
			if _, ok := l1.RespQ.Pop(); !ok {
				break
			}
			c.inFlight[p]--
		}
		for c.inFlight[p] < c.depth && l1.ReqQ.CanPush() {
			i := c.next[p]
			c.next[p]++
			key := (i/2*uint64(2*p+1) + uint64(p)) % cohLoopKeys
			req := CohReq{ID: i, Key: metatag.Key{key, 0}, Payload: 1}
			if i%4 == 3 {
				req.Op = OpMerge
				c.merges[key]++
			}
			l1.ReqQ.MustPush(req)
			c.inFlight[p]++
		}
	}
}

// cohActivity sums the counters the loop must keep moving.
func cohActivity(s *CohSystem) [7]uint64 {
	st := s.Dir.Stats()
	var hits, upgrades uint64
	for _, l1 := range s.Ports {
		hits += l1.Stats().Hits
		upgrades += l1.Stats().Upgrades
	}
	return [7]uint64{st.Txns, st.Invals + st.Downgrades, st.Writebacks, st.BackInvals, st.L1Evictions, hits, upgrades}
}

// requireMoved fails t unless every counter in after grew past before.
func requireMoved(t *testing.T, before, after [7]uint64) {
	t.Helper()
	names := [7]string{"transactions", "snoops", "writebacks", "back-invalidations", "L1 evictions", "L1 hits", "upgrades"}
	for i := range before {
		if after[i] == before[i] {
			t.Fatalf("the measured cycles made no %s (%v → %v)", names[i], before, after)
		}
	}
}

// TestCohWarmCycleAllocatesNothing: once the tables and queue rings of an
// unchecked coherent system hold their working size, its cycles
// allocate nothing. AllocsPerRun(1, …) counts every allocation of one
// 2,000-cycle batch, so a single one fails the gate. Each port keeps one
// op in flight, as a script does: with four, the L2 controller's merge
// lists and the DRAM's request records still reach a new high-water mark
// now and then after 300,000 cycles.
func TestCohWarmCycleAllocatesNothing(t *testing.T) {
	c := newCohLoop(t, 1)
	batch := func() {
		for i := 0; i < 2_000; i++ {
			c.issue()
			c.s.K.Step()
		}
		if err := c.s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		batch()
	}
	before := cohActivity(c.s)
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Fatalf("2,000 warm coherent cycles made %v allocations, want 0", allocs)
	}
	requireMoved(t, before, cohActivity(c.s))
}

// TestCohCheckedCycleAllocatesNothing: the same under check.Default(),
// so every cycle also feeds the directory's value oracle and runs its
// audit of the tag arrays.
func TestCohCheckedCycleAllocatesNothing(t *testing.T) {
	c := newCohLoop(t, 1)
	h := check.Attach(c.s.K, check.Default())
	batch := func() {
		for i := 0; i < 2_000; i++ {
			c.issue()
			if err := h.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		batch()
	}
	before := cohActivity(c.s)
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Fatalf("2,000 warm checked coherent cycles made %v allocations, want 0", allocs)
	}
	requireMoved(t, before, cohActivity(c.s))
	if h.Stalled(c.s.K.Cycle()) {
		t.Fatal("the checked loop stalled")
	}
}

// TestMetaL1MissAllocatesNothing: a warm MetaL1 miss that a second load
// of the same key merges into, answered by the walking level below,
// allocates nothing. The L1 holds 2 elements and the loads cycle over
// 64, so every round misses.
func TestMetaL1MissAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	img := mem.NewImage()
	d := dram.New(k, dram.DefaultConfig(), img)
	meter := &energy.Counters{}
	l2, err := core.Build(k, l2Config(), arraySpec(), d.Req, d.Resp, meter)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := NewMetaL1(k, L1Config{Sets: 2, Ways: 1, WordsPerSector: 4}, l2.Ctrl, meter)
	if err != nil {
		t.Fatal(err)
	}
	base := img.AllocWords(64)
	for i := 0; i < 64; i++ {
		img.W64(base+uint64(i)*8, uint64(i+500))
	}
	l2.SetEnv(0, base)

	key := uint64(0)
	round := func() {
		key = (key + 1) % 64
		for id := uint64(1); id <= 2; id++ {
			l1.ReqQ.MustPush(ctrl.MetaReq{ID: id, Op: ctrl.MetaLoad, Key: metatag.Key{key, 0}, Issued: k.Cycle()})
		}
		for got := 0; got < 2; {
			k.Step()
			for {
				r, ok := l1.RespQ.Pop()
				if !ok {
					break
				}
				if r.Value != key+500 {
					t.Fatalf("key %d read %d", key, r.Value)
				}
				r.Data.Release()
				got++
			}
		}
	}
	batch := func() {
		for i := 0; i < 200; i++ {
			round()
		}
	}
	batch()
	st := l1.Stats()
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Fatalf("200 warm MetaL1 miss-and-merge rounds made %v allocations, want 0", allocs)
	}
	after := l1.Stats()
	if after.Forwards-st.Forwards != 400 || after.Hits != st.Hits {
		t.Fatalf("the measured rounds forwarded %d misses and hit %d times, want 400 and 0",
			after.Forwards-st.Forwards, after.Hits-st.Hits)
	}
}
