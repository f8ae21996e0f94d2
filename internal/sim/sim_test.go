package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueRegisteredVisibility(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 4)
	if !q.Push(7) {
		t.Fatal("push failed on empty queue")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop saw a value pushed this cycle; queue must be registered")
	}
	k.Step()
	v, ok := q.Pop()
	if !ok || v != 7 {
		t.Fatalf("after commit: got (%d,%v), want (7,true)", v, ok)
	}
}

func TestQueueBackpressureCountsStaged(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 2)
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push(3) {
		t.Fatal("push beyond capacity accepted (staged entries must count)")
	}
	k.Step()
	if q.Push(3) {
		t.Fatal("push accepted while committed entries fill capacity")
	}
	q.Pop()
	if !q.Push(3) {
		t.Fatal("push rejected after a pop freed space")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 100)
	for i := 0; i < 50; i++ {
		q.MustPush(i)
	}
	k.Step()
	for i := 0; i < 50; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got (%d,%v)", i, v, ok)
		}
	}
}

func TestQueuePeekDoesNotConsume(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, "q", 2)
	if h := q.Front(); h != nil {
		t.Fatalf("front of an empty queue: got %q", *h)
	}
	q.MustPush("a")
	k.Step()
	if h := q.Front(); h == nil || *h != "a" {
		t.Fatalf("front: got %v", h)
	}
	if q.Len() != 1 {
		t.Fatalf("front consumed: len=%d", q.Len())
	}
	q.Drop()
	if q.Len() != 0 || q.Pops() != 1 {
		t.Fatalf("drop: len=%d pops=%d, want 0 and 1", q.Len(), q.Pops())
	}
}

func TestKernelTickOrderAndCycle(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Add(ComponentFunc(func(c Cycle) { order = append(order, 1) }))
	k.Add(ComponentFunc(func(c Cycle) { order = append(order, 2) }))
	k.Run(2)
	want := []int{1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("ticks: got %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order: got %v want %v", order, want)
		}
	}
	if k.Cycle() != 2 {
		t.Fatalf("cycle: got %d want 2", k.Cycle())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Add(ComponentFunc(func(c Cycle) { n++ }))
	if !k.RunUntil(func() bool { return n >= 10 }, 100) {
		t.Fatal("RunUntil did not report completion")
	}
	if n != 10 {
		t.Fatalf("ran %d cycles, want 10", n)
	}
	if k.RunUntil(func() bool { return false }, 5) {
		t.Fatal("RunUntil reported completion for impossible condition")
	}
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewQueue[int](NewKernel(), "bad", 0)
}

func TestMustPushPanicsWhenFull(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 1)
	q.MustPush(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.MustPush(2)
}

// Property: for any sequence of pushes, popping after commits returns the
// same values in the same order, and occupancy never exceeds capacity.
func TestQueuePreservesSequenceProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		k := NewKernel()
		q := NewQueue[uint16](k, "q", len(vals)+1)
		for _, v := range vals {
			if !q.Push(v) {
				return false
			}
		}
		k.Step()
		if q.Len() > q.Cap() {
			return false
		}
		for _, want := range vals {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueStats(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 8)
	for i := 0; i < 5; i++ {
		q.MustPush(i)
	}
	k.Step()
	q.Pop()
	q.Pop()
	if q.Pushes() != 5 || q.Pops() != 2 || q.MaxLen() != 5 {
		t.Fatalf("stats: pushes=%d pops=%d max=%d", q.Pushes(), q.Pops(), q.MaxLen())
	}
}

func TestRunUntilDoneAtEntryAndAtBudgetEdge(t *testing.T) {
	// Done before the first step: no cycles may elapse.
	k := NewKernel()
	if !k.RunUntil(func() bool { return true }, 100) {
		t.Fatal("RunUntil missed an already-true condition")
	}
	if k.Cycle() != 0 {
		t.Fatalf("stepped %d cycles for an already-true condition", k.Cycle())
	}
	// Done becomes true exactly when the budget runs out: the final check
	// after the last step must still see it.
	k2 := NewKernel()
	n := 0
	k2.Add(ComponentFunc(func(c Cycle) { n++ }))
	if !k2.RunUntil(func() bool { return n >= 5 }, 5) {
		t.Fatal("RunUntil missed a condition satisfied by the last budgeted step")
	}
	// Never done: budget must bound the work exactly.
	k3 := NewKernel()
	steps := 0
	k3.Add(ComponentFunc(func(c Cycle) { steps++ }))
	if k3.RunUntil(func() bool { return false }, 7) {
		t.Fatal("RunUntil reported completion for an impossible condition")
	}
	if steps != 7 {
		t.Fatalf("ran %d steps, want exactly the budget of 7", steps)
	}
}

// Same-cycle push+pop on an exactly-full queue. Pushes are staged but
// pops act immediately, so the contract is asymmetric by design: a
// producer ticked before the consumer sees the queue still full (its
// push is refused; back-pressure is conservative), while a consumer
// ticked first frees the slot for this cycle's push. Either way occupancy
// never exceeds capacity and FIFO data is preserved.
func TestFullQueueSameCyclePushPop(t *testing.T) {
	run := func(producerFirst bool) (accepted int, q *Queue[int]) {
		k := NewKernel()
		q = NewQueue[int](k, "q", 1)
		producer := ComponentFunc(func(c Cycle) {
			if q.Push(int(c)) {
				accepted++
			}
		})
		consumer := ComponentFunc(func(c Cycle) { q.Pop() })
		if producerFirst {
			k.Add(producer)
			k.Add(consumer)
		} else {
			k.Add(consumer)
			k.Add(producer)
		}
		for i := 0; i < 6; i++ {
			k.Step()
			if q.Len()+q.StagedLen() > q.Cap() {
				t.Fatalf("occupancy %d+%d exceeded cap %d", q.Len(), q.StagedLen(), q.Cap())
			}
		}
		return accepted, q
	}
	// Producer first: the cycle-N push is refused while cycle N-1's entry
	// is committed and un-popped, so pushes land every other cycle.
	if accepted, _ := run(true); accepted != 3 {
		t.Fatalf("producer-first accepted %d pushes in 6 cycles, want 3", accepted)
	}
	// Consumer first: each pop frees the single slot before the producer
	// ticks, so every push is accepted.
	if accepted, _ := run(false); accepted != 6 {
		t.Fatalf("consumer-first accepted %d pushes in 6 cycles, want 6", accepted)
	}
}

// Two components exchanging values through queues must produce identical
// traffic regardless of registration order.
func TestCommitOrderIndependence(t *testing.T) {
	run := func(pingFirst bool) []int {
		k := NewKernel()
		ab := NewQueue[int](k, "ab", 4)
		ba := NewQueue[int](k, "ba", 4)
		var seen []int
		ping := ComponentFunc(func(c Cycle) {
			if v, ok := ba.Pop(); ok {
				ab.Push(v + 1)
			} else if c == 0 {
				ab.Push(100)
			}
		})
		pong := ComponentFunc(func(c Cycle) {
			if v, ok := ab.Pop(); ok {
				seen = append(seen, v)
				ba.Push(v)
			}
		})
		if pingFirst {
			k.Add(ping)
			k.Add(pong)
		} else {
			k.Add(pong)
			k.Add(ping)
		}
		k.Run(12)
		return seen
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("registration order changed traffic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("registration order changed traffic: %v vs %v", a, b)
		}
	}
}

func TestMustPushPanicsWithDiagnosticError(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "resp", 2)
	q.MustPush(1)
	k.Step()
	q.MustPush(2) // staged
	defer func() {
		r := recover()
		qf, ok := r.(*QueueFullError)
		if !ok {
			t.Fatalf("panic value %T, want *QueueFullError", r)
		}
		if qf.Queue != "resp" || qf.Cycle != 1 || qf.Occupancy != 1 || qf.Staged != 1 || qf.Cap != 2 {
			t.Fatalf("bad diagnostics: %+v", qf)
		}
		if qf.Error() == "" {
			t.Fatal("empty error string")
		}
	}()
	q.MustPush(3)
}

func TestMaxLenCountsStagedOccupancy(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 8)
	// Fill-and-drain within single cycles: committed length never exceeds
	// 1, but producers saw occupancy 3 through back-pressure.
	q.MustPush(1)
	q.MustPush(2)
	q.MustPush(3)
	k.Step()
	q.Pop()
	q.Pop()
	if q.MaxLen() != 3 {
		t.Fatalf("MaxLen=%d, want 3 (staged entries are real occupancy)", q.MaxLen())
	}
	q.MustPush(4)
	q.MustPush(5)
	if q.MaxLen() != 3 {
		t.Fatalf("MaxLen=%d after partial refill, want 3", q.MaxLen())
	}
}

// TestQueueFillDrainAllocatesNothing gates the queue's steady state: once
// the ring exists, pushing, committing and popping allocate nothing.
func TestQueueFillDrainAllocatesNothing(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 64)
	round := func() {
		for i := 0; i < 40; i++ {
			q.MustPush(i)
		}
		k.Step()
		for i := 0; i < 40; i++ {
			if _, ok := q.Pop(); !ok {
				t.Fatalf("pop %d of 40 failed", i)
			}
		}
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("fill-and-drain round allocates %v times, want 0", n)
	}
}

// TestQueueMatchesSliceModel drives seeded random Push/Pop/Peek/Step
// sequences against a plain-slice model of the registered FIFO and
// compares every observable after every call, the kernel's move counter
// and the queue's last-pop stamp included. Phases alternate between
// filling and draining, so the ring wraps and the queue runs full.
func TestQueueMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		k := NewKernel()
		q := NewQueue[int](k, "q", capacity)
		var committed, staged []int
		var pushes, pops uint64
		var lastPop Cycle
		maxLen, refused, next := 0, 0, 0
		check := func(op string) {
			t.Helper()
			if q.Len() != len(committed) || q.StagedLen() != len(staged) ||
				q.Free() != capacity-len(committed)-len(staged) ||
				q.CanPush() != (len(committed)+len(staged) < capacity) ||
				q.Pushes() != pushes || q.Pops() != pops || q.MaxLen() != maxLen ||
				k.Moves() != pushes+pops || q.LastPop() != lastPop {
				t.Fatalf("cap %d after %s: queue len %d staged %d free %d pushes %d pops %d maxLen %d moves %d lastPop %d; model %v staged %v pushes %d pops %d maxLen %d lastPop %d",
					capacity, op, q.Len(), q.StagedLen(), q.Free(), q.Pushes(), q.Pops(), q.MaxLen(), k.Moves(), q.LastPop(),
					committed, staged, pushes, pops, maxLen, lastPop)
			}
		}
		for i := 0; i < 4000; i++ {
			fill := (i/50)%2 == 0
			switch r := rng.Intn(10); {
			case r < 4 && fill || r < 2:
				ok := q.Push(next)
				if want := len(committed)+len(staged) < capacity; ok != want {
					t.Fatalf("cap %d: Push(%d) = %v, model says %v", capacity, next, ok, want)
				}
				if ok {
					staged = append(staged, next)
					pushes++
					maxLen = max(maxLen, len(committed)+len(staged))
				} else {
					refused++
				}
				next++
				check("Push")
			case r < 7:
				v, ok := q.Pop()
				if ok != (len(committed) > 0) || ok && v != committed[0] {
					t.Fatalf("cap %d: Pop = (%d, %v), model head %v", capacity, v, ok, committed)
				}
				if ok {
					committed = committed[1:]
					pops++
					lastPop = k.Cycle()
				}
				check("Pop")
			case r < 8:
				h := q.Front()
				if (h != nil) != (len(committed) > 0) || h != nil && *h != committed[0] {
					t.Fatalf("cap %d: Front = %v, model head %v", capacity, h, committed)
				}
				check("Front")
			default:
				k.Step()
				committed = append(committed, staged...)
				staged = nil
				check("Step")
			}
		}
		if pops <= uint64(capacity) || refused == 0 {
			t.Fatalf("cap %d: %d pops and %d refused pushes: the sequence never wrapped or never ran full", capacity, pops, refused)
		}
	}
}

func TestClogMakesQueueReportFull(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 4)
	clogged := true
	q.SetClog(func() bool { return clogged })
	if q.CanPush() || q.Free() != 0 || q.Push(1) {
		t.Fatal("clogged queue accepted a push")
	}
	clogged = false
	if !q.Push(1) {
		t.Fatal("unclogged queue refused a push")
	}
	q.SetClog(nil)
	if !q.CanPush() {
		t.Fatal("cleared clog still blocks")
	}
}

func TestObserverRunsAfterCommit(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 4)
	k.Add(ComponentFunc(func(c Cycle) {
		if c == 0 {
			q.Push(9)
		}
	}))
	var lens []int
	var cycles []Cycle
	k.Observe(observerFunc(func(c Cycle) {
		lens = append(lens, q.Len())
		cycles = append(cycles, c)
	}))
	k.Run(2)
	if len(lens) != 2 || lens[0] != 1 {
		t.Fatalf("observer saw lens %v; cycle-0 push must be committed before AfterStep", lens)
	}
	if cycles[0] != 0 || cycles[1] != 1 {
		t.Fatalf("observer cycles %v, want [0 1]", cycles)
	}
}

// TestCommittedListsTheStepsPushes: after a step, Committed names exactly
// the queues that step committed, in first-push order; a push made by an
// observer stages for the next step and shows up in that step's list.
func TestCommittedListsTheStepsPushes(t *testing.T) {
	k := NewKernel()
	a := NewQueue[int](k, "a", 4)
	b := NewQueue[int](k, "b", 4)
	NewQueue[int](k, "idle", 4)
	k.Add(ComponentFunc(func(c Cycle) {
		if c == 0 {
			b.Push(1)
			a.Push(2)
			b.Push(3)
		}
	}))
	var seen [][]string
	k.Observe(observerFunc(func(c Cycle) {
		var names []string
		for _, q := range k.Committed() {
			if q.StagedLen() != 0 {
				t.Fatalf("cycle %d: committed queue %s still holds staged entries", c, q.Name())
			}
			names = append(names, q.Name())
		}
		seen = append(seen, names)
		if c == 1 {
			a.Push(4) // stages for cycle 2
		}
	}))
	k.Run(4)
	want := [][]string{{"b", "a"}, nil, {"a"}, nil}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("committed lists %v, want %v", seen, want)
	}
	if a.Len() != 2 || b.Len() != 2 || k.Moves() != 4 {
		t.Fatalf("a.Len=%d b.Len=%d moves=%d, want 2, 2, 4", a.Len(), b.Len(), k.Moves())
	}
}

type observerFunc func(c Cycle)

func (f observerFunc) AfterStep(c Cycle) { f(c) }

func TestIdleKernelStepAllocatesNothing(t *testing.T) {
	k := NewKernel()
	qs := make([]*Queue[int], 64)
	for i := range qs {
		qs[i] = NewQueue[int](k, "q", 4)
	}
	if allocs := testing.AllocsPerRun(100, k.Step); allocs != 0 {
		t.Fatalf("a step over 64 idle queues made %v allocations, want 0", allocs)
	}
	// A step that commits pushes to some of them allocates nothing either,
	// once each queue holds its ring.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < len(qs); i += 3 {
			qs[i].Push(i)
		}
		k.Step()
		for i := 0; i < len(qs); i += 3 {
			qs[i].Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("a step committing 22 pushes made %v allocations, want 0", allocs)
	}
}
