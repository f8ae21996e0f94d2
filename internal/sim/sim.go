// Package sim provides the cycle-level simulation kernel that every
// hardware structure in this repository is built on.
//
// The kernel advances a global cycle counter and ticks registered
// components in a fixed order. All inter-component communication flows
// through registered queues (Queue[T]): a value pushed during cycle N
// becomes visible to poppers at cycle N+1, exactly like the
// latency-insensitive queues the paper's Chisel generator emits. This
// discipline makes results independent of component tick order, which is
// what lets a software model stand in for RTL simulation.
//
// Queues also keep the counters supervision reads, so a checked cycle
// costs what moved in it rather than a scan of every queue: each Push and
// Pop adds one to the kernel's move counter (Moves), each Pop stamps its
// queue's last-pop cycle (LastPop), and after a step the kernel lists the
// queues that committed a push in it (Committed). Unsupervised runs pay
// for these too: one increment per push or pop and one stamp per pop.
package sim

import "fmt"

// Cycle is a point in simulated time, measured in controller clock cycles.
type Cycle uint64

// Component is any ticked hardware structure. Tick is called exactly once
// per cycle, in registration order.
type Component interface {
	Tick(c Cycle)
}

// ComponentFunc adapts a plain function to the Component interface.
type ComponentFunc func(c Cycle)

// Tick implements Component.
func (f ComponentFunc) Tick(c Cycle) { f(c) }

// Observer is notified after every completed kernel step (all components
// ticked, all queues committed), with the cycle that just executed.
// Watchdogs and invariant checkers hang off this hook; when none are
// registered the kernel pays nothing.
type Observer interface {
	AfterStep(c Cycle)
}

// QueueInfo is the type-erased introspection view of a Queue[T]; the
// kernel exposes every registered queue through it so diagnostic layers
// (stall reports, invariant checkers) need not know element types. Only
// Queue[T] implements it: the kernel commits staged pushes through it.
type QueueInfo interface {
	Name() string
	Cap() int
	Len() int
	StagedLen() int
	MaxLen() int
	Pushes() uint64
	Pops() uint64
	LastPop() Cycle

	commit()
}

// Clogger is implemented by queues that accept a fault hook making them
// report transiently full (deterministic fault injection).
type Clogger interface {
	Name() string
	SetClog(f func() bool)
}

// QueueFullError is the panic value raised by MustPush on a full queue.
// It carries enough state to diagnose the overflow without a debugger;
// hardened run loops (internal/check) recover it into a StallReport.
type QueueFullError struct {
	Queue     string
	Cycle     Cycle
	Occupancy int // committed entries at the failed push
	Staged    int // staged (uncommitted) entries at the failed push
	Cap       int
	MaxLen    int
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("sim: MustPush on full queue %q at cycle %d (occupancy %d+%d staged / cap %d, high-water %d)",
		e.Queue, e.Cycle, e.Occupancy, e.Staged, e.Cap, e.MaxLen)
}

// Kernel owns simulated time. Components are ticked in registration order,
// then the queues that staged a push this cycle commit.
type Kernel struct {
	cycle     Cycle
	moves     uint64 // lifetime pushes plus pops over every queue
	comps     []Component
	queues    []QueueInfo // every registered queue, in registration order
	staged    []QueueInfo // queues with staged pushes, in first-push order
	committed []QueueInfo // the queues the last step committed
	observers []Observer
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Add registers a component. Components are ticked in the order added.
func (k *Kernel) Add(c Component) { k.comps = append(k.comps, c) }

// Observe registers an observer called after every step.
func (k *Kernel) Observe(o Observer) { k.observers = append(k.observers, o) }

// Components returns a copy of the registered components in tick order.
func (k *Kernel) Components() []Component {
	return append([]Component(nil), k.comps...)
}

// Queues returns the introspection view of every registered queue, in
// registration order.
func (k *Kernel) Queues() []QueueInfo {
	return append([]QueueInfo(nil), k.queues...)
}

// Committed lists the queues that committed a push in the last step, in
// first-push order. An observer reads it in AfterStep; the slice is the
// kernel's own and is reused by the next step, so it must not be kept or
// modified.
func (k *Kernel) Committed() []QueueInfo { return k.committed }

// Moves returns the lifetime number of pushes plus pops over every
// registered queue. It only grows, so a watchdog can read progress from
// it without visiting the queues.
func (k *Kernel) Moves() uint64 { return k.moves }

// Cycle reports the current cycle (the number of completed steps).
func (k *Kernel) Cycle() Cycle { return k.cycle }

// Step advances simulated time by one cycle: every component ticks, then
// every queue that staged a push commits. Queues commit independently, so
// skipping the ones without staged pushes changes nothing. The list of
// queues just committed stays readable through Committed until the next
// step; a push an observer makes stages into a fresh list.
func (k *Kernel) Step() {
	for _, c := range k.comps {
		c.Tick(k.cycle)
	}
	for _, q := range k.staged {
		q.commit()
	}
	k.staged, k.committed = k.committed[:0], k.staged
	if len(k.observers) != 0 {
		for _, o := range k.observers {
			o.AfterStep(k.cycle)
		}
	}
	k.cycle++
}

// Run steps the kernel n times.
func (k *Kernel) Run(n int) {
	for i := 0; i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the kernel until done reports true or the budget of max
// cycles is exhausted. It returns true if done became true.
func (k *Kernel) RunUntil(done func() bool, max int) bool {
	for i := 0; i < max; i++ {
		if done() {
			return true
		}
		k.Step()
	}
	return done()
}

// Queue is a bounded registered FIFO. Pushes made during a cycle are staged
// and become poppable only after the kernel commits at the end of the
// cycle. Capacity counts committed plus staged entries, so producers see
// back-pressure immediately.
type Queue[T any] struct {
	name string
	cap  int
	k    *Kernel
	// ring holds the n committed entries from slot head on, followed by
	// the staged ones. It has cap slots and is allocated on the first
	// push, so an idle queue holds no backing array.
	ring   []T
	head   int
	n      int
	staged int
	clog   func() bool // fault hook: true → report full this cycle

	// Stats.
	pushes  uint64
	pops    uint64
	lastPop Cycle // cycle of the latest pop, 0 before the first
	maxLen  int
}

// NewQueue creates a queue with the given capacity, registered with the
// kernel so its staged pushes commit each cycle. Capacity must be positive.
func NewQueue[T any](k *Kernel, name string, capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: queue %q capacity must be positive, got %d", name, capacity))
	}
	q := &Queue[T]{name: name, cap: capacity, k: k}
	k.queues = append(k.queues, q)
	return q
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the number of committed (poppable) entries.
func (q *Queue[T]) Len() int { return q.n }

// CanPush reports whether a push this cycle would be accepted.
func (q *Queue[T]) CanPush() bool {
	if q.clog != nil && q.clog() {
		return false
	}
	return q.n+q.staged < q.cap
}

// Free returns how many pushes would currently be accepted.
func (q *Queue[T]) Free() int {
	if q.clog != nil && q.clog() {
		return 0
	}
	return q.cap - q.n - q.staged
}

// SetClog installs a fault hook: while f reports true the queue refuses
// pushes as if full. f must be stable within a cycle so CanPush/Push pairs
// stay consistent. Pass nil to clear. Implements Clogger.
func (q *Queue[T]) SetClog(f func() bool) { q.clog = f }

// Push stages v for commit at the end of the cycle. It reports false if
// the queue is full (the caller must retry a later cycle).
func (q *Queue[T]) Push(v T) bool {
	if !q.CanPush() {
		return false
	}
	if q.ring == nil {
		q.ring = make([]T, q.cap)
	}
	q.ring[q.slot(q.n+q.staged)] = v
	if q.staged == 0 {
		q.k.staged = append(q.k.staged, q)
	}
	q.staged++
	q.pushes++
	q.k.moves++
	// The high-water mark tracks peak occupancy including staged entries:
	// this is the occupancy producers see through CanPush, so a queue that
	// fills and drains within one cycle still records the pressure. It
	// also bounds every committed length, so commit need not track it.
	if occ := q.n + q.staged; occ > q.maxLen {
		q.maxLen = occ
	}
	return true
}

// MustPush panics with a *QueueFullError if the queue is full. Use only
// where the design guarantees space (e.g., a response queue sized to
// outstanding requests); hardened run loops recover the error into a
// StallReport instead of crashing.
func (q *Queue[T]) MustPush(v T) {
	if !q.Push(v) {
		panic(&QueueFullError{
			Queue: q.name, Cycle: q.k.cycle,
			Occupancy: q.n, Staged: q.staged,
			Cap: q.cap, MaxLen: q.maxLen,
		})
	}
}

// slot maps the i-th entry from the head (i < cap) to its ring index.
func (q *Queue[T]) slot(i int) int {
	if i += q.head; i >= q.cap {
		i -= q.cap
	}
	return i
}

// Peek returns the head without consuming it. ok is false when empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.ring[q.head], true
}

// Pop consumes and returns the head. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.ring[q.head]
	// Zero the vacated slot so element payloads (e.g. fill data slices)
	// become collectable.
	var zero T
	q.ring[q.head] = zero
	q.head = q.slot(1)
	q.n--
	q.pops++
	q.k.moves++
	q.lastPop = q.k.cycle
	return v, true
}

// Pushes returns the lifetime number of accepted pushes.
func (q *Queue[T]) Pushes() uint64 { return q.pushes }

// Pops returns the lifetime number of pops.
func (q *Queue[T]) Pops() uint64 { return q.pops }

// LastPop returns the cycle of the latest pop (the kernel's cycle when it
// was made), or 0 if the queue was never popped.
func (q *Queue[T]) LastPop() Cycle { return q.lastPop }

// MaxLen returns the high-water mark of occupancy, counting staged
// entries at the moment they were pushed (the back-pressure view).
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// StagedLen returns the number of staged (uncommitted) entries.
func (q *Queue[T]) StagedLen() int { return q.staged }

func (q *Queue[T]) commit() {
	q.n += q.staged
	q.staged = 0
}
