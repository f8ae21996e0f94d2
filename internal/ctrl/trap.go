package ctrl

import (
	"fmt"
	"math/bits"

	"xcache/internal/isa"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// TrapKind classifies structural microcode faults: a routine (or a
// bit-flipped microcode word) asked the hardware for something it cannot
// do. A trap is a property of the loaded program, not of the simulator —
// the controller quiesces the offending walker and keeps running, and the
// fault surfaces through check.Failure/runner.RunError as kind "trap".
type TrapKind int

// The trap taxonomy.
const (
	// TrapIllegalOp: undefined opcode, or the program counter escaped the
	// microcode RAM (a branch past a routine's end).
	TrapIllegalOp TrapKind = iota + 1
	// TrapRegOOB: a register operand indexes beyond the X-register file.
	TrapRegOOB
	// TrapImmRange: an immediate outside its operand's domain (state,
	// event, or environment-slot number).
	TrapImmRange
	// TrapPeekOOB: a message peek beyond the waking message's words.
	TrapPeekOOB
	// TrapFillOverflow: a DRAM fill or writeback outside [1, MaxFillWords].
	TrapFillOverflow
	// TrapMisalignedUpdate: update with no allocated meta-tag entry, or a
	// sector base that is not sector aligned.
	TrapMisalignedUpdate
	// TrapRunawayRoutine: a routine exceeded MaxRoutineSteps actions.
	TrapRunawayRoutine
	// TrapMissingTransition: a walker was woken for a (state, event) pair
	// with no routine in the table.
	TrapMissingTransition
	// TrapAllocOverflow: a duplicate allocm, or a data-RAM allocation of
	// ≤0 sectors or more sectors than the RAM holds.
	TrapAllocOverflow
	// TrapDataOOB: a register-addressed data-RAM access (readd, writed,
	// enqwb, update sector range) outside the RAM.
	TrapDataOOB
)

// String names the kind in the kebab-case used by JSON failure records.
func (k TrapKind) String() string {
	switch k {
	case TrapIllegalOp:
		return "illegal-op"
	case TrapRegOOB:
		return "reg-oob"
	case TrapImmRange:
		return "imm-range"
	case TrapPeekOOB:
		return "peek-oob"
	case TrapFillOverflow:
		return "fill-overflow"
	case TrapMisalignedUpdate:
		return "misaligned-update"
	case TrapRunawayRoutine:
		return "runaway-routine"
	case TrapMissingTransition:
		return "missing-transition"
	case TrapAllocOverflow:
		return "alloc-overflow"
	case TrapDataOOB:
		return "data-oob"
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap is the typed error raised when microcode faults structurally. The
// offending walker is quiesced — its entry and sectors released, its
// outstanding fills drained and discarded, its origin and merged waiters
// answered NotFound — so the machine never wedges and never panics on a
// bad program. The first trap is retained; later traps only count.
type Trap struct {
	Kind    TrapKind
	Program string
	Walker  int32
	State   string // walker state name at the fault
	Event   string // event that woke the faulting routine
	PC      int32  // absolute microcode index, -1 outside routine execution
	Op      isa.Op
	Cycle   sim.Cycle
	Detail  string
}

// Error implements error.
func (t *Trap) Error() string {
	loc := fmt.Sprintf("[%s, %s]", t.State, t.Event)
	if t.PC >= 0 {
		loc += fmt.Sprintf(" pc %d (%s)", t.PC, t.Op.Name())
	}
	return fmt.Sprintf("ctrl: trap %s in program %s %s walker %d @ cycle %d: %s",
		t.Kind, t.Program, loc, t.Walker, t.Cycle, t.Detail)
}

// SpecBug is the typed panic value for the asserts that remain panics: a
// violated simulator-internal contract (e.g. a fill addressed to a freed
// walker, a walker finishing with fills outstanding) is a bug in this
// package, not in the loaded program, so it must fail loudly rather than
// degrade into a trap.
type SpecBug struct{ Msg string }

// Error implements error so recovered values render cleanly.
func (b *SpecBug) Error() string { return "ctrl spec bug: " + b.Msg }

func specBug(format string, args ...any) {
	panic(&SpecBug{Msg: fmt.Sprintf(format, args...)})
}

// Trap returns the first trap raised since the program was loaded, or nil.
func (c *Controller) Trap() *Trap { return c.trap }

// ClearTrap discards the latched trap and returns it, re-arming trap
// capture without reloading the program. The machine is already healthy —
// raise() quiesced the offending walker when the trap fired — so this is
// the reset hook for supervisors (internal/serve's circuit breaker) that
// drain a controller after a trap and then resume feeding it. Stats.Traps
// keeps its cumulative count.
func (c *Controller) ClearTrap() *Trap {
	t := c.trap
	c.trap = nil
	return t
}

// trapStep raises a trap from the back-end executor: the action at r.pc
// faulted. It quiesces the walker and retires the routine (stepDone).
func (c *Controller) trapStep(cy sim.Cycle, r *run, w *walker, kind TrapKind, detail string) stepStatus {
	var op isa.Op
	if r.pc >= 0 && int(r.pc) < len(c.Prog.Code) {
		op = c.Prog.Code[r.pc].Op
	}
	c.raise(cy, w, kind, r.pc, op, detail)
	return stepDone
}

// raise records the trap (first one wins) and quiesces the walker.
func (c *Controller) raise(cy sim.Cycle, w *walker, kind TrapKind, pc int32, op isa.Op, detail string) {
	if c.trap == nil {
		t := &Trap{Kind: kind, Program: c.Prog.Name, Walker: w.id, PC: pc, Op: op, Cycle: cy, Detail: detail}
		if w.state >= 0 && w.state < len(c.Prog.StateNames) {
			t.State = c.Prog.StateNames[w.state]
		} else {
			t.State = fmt.Sprintf("state%d", w.state)
		}
		if w.msg.event >= 0 && w.msg.event < len(c.Prog.EventNames) {
			t.Event = c.Prog.EventNames[w.msg.event]
		} else {
			t.Event = fmt.Sprintf("event%d", w.msg.event)
		}
		c.trap = t
	}
	c.stats.Traps++
	c.quiesce(w)
}

// quiesce retires a faulted walker without wedging anything: the meta-tag
// entry and data sectors are released (so no stale transient entry blocks
// the key forever), the thread pipeline is freed, and every request parked
// on the walker is answered NotFound through the deferred-response list
// (the response queue may be full mid-cycle). If DRAM fills are
// outstanding the walker context stays allocated in a trapped state until
// acceptFills drains them — their data is discarded — and only then
// returns to the free list.
func (c *Controller) quiesce(w *walker) {
	w.running = false
	w.trapped = true
	c.pendingMsgs -= len(w.pending)
	for i := range w.pending {
		w.pending[i].data.Release()
	}
	w.pending = w.pending[:0]
	w.msg.data.Release()
	if w.entry != nil {
		if w.entry.SectorCount > 0 {
			c.Data.Free(w.entry.SectorBase, w.entry.SectorCount)
		}
		c.Tags.Dealloc(w.entry)
		w.entry = nil
	}
	if w.pipeline >= 0 {
		c.pipes[w.pipeline] = -1
		w.pipeline = -1
	}
	if !w.responded {
		c.trapResps = append(c.trapResps, MetaResp{ID: w.origin.ID, Status: program.StatusNotFound})
	}
	for _, waiter := range w.waiters {
		c.trapResps = append(c.trapResps, MetaResp{ID: waiter.ID, Status: program.StatusNotFound})
	}
	w.waiters = w.waiters[:0]
	if w.fills == 0 {
		c.freeTrapped(w)
	}
}

// freeTrapped returns a fully-drained trapped walker to the free list.
func (c *Controller) freeTrapped(w *walker) {
	w.active = false
	c.liveRegs -= uint64(bits.OnesCount32(w.liveMask))
	w.trapped = false
	c.freeW = append(c.freeW, w.id)
}

// flushTrapResps delivers deferred NotFound responses for quiesced
// walkers as response-queue space allows.
func (c *Controller) flushTrapResps() {
	n := 0
	for n < len(c.trapResps) && c.RespQ.CanPush() {
		c.RespQ.MustPush(c.trapResps[n])
		n++
		c.stats.Responses++
		c.stats.NotFound++
	}
	c.trapResps = c.trapResps[:copy(c.trapResps, c.trapResps[n:])]
}
