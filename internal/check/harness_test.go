package check

import (
	"errors"
	"strings"
	"testing"

	"xcache/internal/sim"
)

func TestRollDeterministicAndStreamSeparated(t *testing.T) {
	in := newInjector(42, FaultConfig{DropResp: 0.5}, sim.NewKernel())
	for i := uint64(0); i < 1000; i++ {
		a := Roll(in.seed, streamDrop, i, i*3)
		if b := Roll(in.seed, streamDrop, i, i*3); a != b {
			t.Fatalf("roll not deterministic at %d: %v vs %v", i, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("roll out of [0,1): %v", a)
		}
	}
	// Streams must decorrelate: identical salts, different streams.
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if (Roll(in.seed, streamDrop, i, 0) < 0.5) == (Roll(in.seed, streamDelay, i, 0) < 0.5) {
			same++
		}
	}
	if same > 600 || same < 400 {
		t.Fatalf("streams correlated: %d/1000 agreements", same)
	}
	// Different seeds must decorrelate too.
	in2 := newInjector(43, FaultConfig{}, sim.NewKernel())
	same = 0
	for i := uint64(0); i < 1000; i++ {
		if (Roll(in.seed, streamDrop, i, 0) < 0.5) == (Roll(in2.seed, streamDrop, i, 0) < 0.5) {
			same++
		}
	}
	if same > 600 || same < 400 {
		t.Fatalf("seeds correlated: %d/1000 agreements", same)
	}
}

func TestClogStableWithinCycle(t *testing.T) {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "q", 4)
	in := newInjector(9, FaultConfig{ClogQueue: 0.5}, k)
	in.clog(q)
	flips := 0
	for cy := 0; cy < 200; cy++ {
		first := q.CanPush()
		for i := 0; i < 5; i++ {
			if q.CanPush() != first {
				t.Fatalf("cycle %d: clog decision changed within the cycle", cy)
			}
		}
		k.Step()
		if q.CanPush() != first {
			flips++
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if flips == 0 {
		t.Fatal("clog decision never changed across 200 cycles at rate 0.5")
	}
}

func TestWatchdogFiresOnlyWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "q", 4)
	active := true
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		if active {
			q.Push(1)
			q.Pop()
		}
	}))
	w := newWatchdog(k, 10)
	k.Observe(w)
	k.Run(50)
	if w.stalled(k.Cycle()) {
		t.Fatal("watchdog fired while queue traffic was flowing")
	}
	active = false
	k.Run(8)
	if w.stalled(k.Cycle()) {
		t.Fatal("watchdog fired before the window elapsed")
	}
	k.Run(2)
	if !w.stalled(k.Cycle()) {
		t.Fatal("watchdog missed a genuine stall")
	}
}

type failingComponent struct{ err error }

func (f *failingComponent) Tick(c sim.Cycle)                {}
func (f *failingComponent) CheckInvariants(sim.Cycle) error { return f.err }
func (f *failingComponent) DiagnoseName() string            { return "failing" }
func (f *failingComponent) Diagnose() []string              { return []string{"broken state"} }

func TestRunAbortsOnInvariantViolation(t *testing.T) {
	k := sim.NewKernel()
	fc := &failingComponent{}
	k.Add(fc)
	h := Attach(k, Default())
	n := 0
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		n++
		if n == 3 {
			fc.err = errors.New("ledger out of balance")
		}
	}))
	ok, rep := Run(h, k, func() bool { return false }, 100)
	if ok {
		t.Fatal("run reported success despite an invariant violation")
	}
	if rep == nil || !strings.Contains(rep.Reason, "ledger out of balance") {
		t.Fatalf("report missing the violation: %+v", rep)
	}
	if n != 3 {
		t.Fatalf("run continued %d cycles past the violation", n)
	}
	if !strings.Contains(rep.String(), "broken state") {
		t.Fatal("report lacks the failing component's diagnosis")
	}
}

func TestRunRecoversQueueOverflowPanic(t *testing.T) {
	k := sim.NewKernel()
	q := sim.NewQueue[int](k, "victim", 1)
	k.Add(sim.ComponentFunc(func(c sim.Cycle) { q.MustPush(int(c)) }))
	h := Attach(k, Default())
	ok, rep := Run(h, k, func() bool { return false }, 100)
	if ok || rep == nil {
		t.Fatal("overflow did not abort the run")
	}
	if !strings.Contains(rep.Reason, "queue overflow") || !strings.Contains(rep.Reason, "victim") {
		t.Fatalf("overflow not attributed: %s", rep.Reason)
	}
}

func TestNilHarnessFallsBackToPlainRun(t *testing.T) {
	k := sim.NewKernel()
	n := 0
	k.Add(sim.ComponentFunc(func(c sim.Cycle) { n++ }))
	h := Attach(k, nil)
	if h != nil {
		t.Fatal("nil config produced a harness")
	}
	ok, rep := Run(h, k, func() bool { return n >= 5 }, 100)
	if !ok || rep != nil {
		t.Fatalf("nil-harness run: ok=%v rep=%v", ok, rep)
	}
}

func TestStallReportStuckMarking(t *testing.T) {
	k := sim.NewKernel()
	stuck := sim.NewQueue[int](k, "stuck", 4)
	flowing := sim.NewQueue[int](k, "flowing", 4)
	k.Add(sim.ComponentFunc(func(c sim.Cycle) {
		if c == 0 {
			stuck.Push(1) // never popped
		}
		flowing.Push(int(c))
		flowing.Pop()
	}))
	h := Attach(k, &Config{Watchdog: 5, Invariants: true})
	ok, rep := Run(h, k, func() bool { return false }, 50)
	if ok {
		t.Fatal("budget run reported success")
	}
	names := rep.StuckQueues()
	if len(names) != 1 || names[0] != "stuck" {
		t.Fatalf("StuckQueues=%v, want [stuck]", names)
	}
}

// pipe is a two-stage component that moves values between queues every
// cycle and reports activity and (healthy) invariants like a real one.
type pipe struct {
	in, out *sim.Queue[int]
	moved   uint64
}

func (p *pipe) Tick(c sim.Cycle) {
	if v, ok := p.in.Pop(); ok && p.out.Push(v) {
		p.moved++
	}
	p.in.Push(int(c))
	p.out.Pop()
}
func (p *pipe) ActivityCount() uint64           { return p.moved }
func (p *pipe) CheckInvariants(sim.Cycle) error { return nil }

// TestCheckedStepAllocatesNothing gates the cost of supervision: once the
// queues hold their rings, a step under the default watchdog and
// invariants allocates nothing.
func TestCheckedStepAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	for i := 0; i < 4; i++ {
		k.Add(&pipe{in: sim.NewQueue[int](k, "in", 4), out: sim.NewQueue[int](k, "out", 4)})
	}
	h := Attach(k, Default())
	for i := 0; i < 10; i++ {
		if err := h.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := h.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a checked step made %v allocations, want 0", allocs)
	}
	if err := h.Audit(); err != nil {
		t.Fatal(err)
	}
	if h.Stalled(k.Cycle()) || len(k.Committed()) == 0 {
		t.Fatalf("pipeline idle: stalled=%t, %d queues committed in the last step", h.Stalled(k.Cycle()), len(k.Committed()))
	}
}
