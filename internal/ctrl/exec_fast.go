package ctrl

import (
	"fmt"

	"xcache/internal/isa"
	"xcache/internal/program"
	"xcache/internal/sim"
)

// ExecPath selects the back-end executor implementation.
type ExecPath uint8

// Executor paths. The zero value is the pre-decoded fast path, so every
// existing construction site gets it without opting in; the interpreter
// stays available as the semantic reference for differential testing.
const (
	// ExecFast pre-decodes each verified instruction once at load time
	// into a step closure with operands resolved and statically-discharged
	// checks stripped (see DESIGN.md §11).
	ExecFast ExecPath = iota
	// ExecInterp forces the reference interpreter (exec.go), which
	// re-decodes and re-bounds-checks every instruction on every step.
	ExecInterp
)

// fastFn is one pre-decoded step: the action at a fixed pc, compiled
// against the loaded program. It runs the residual dynamic checks only
// (runaway budget and pc bounds live one level up in stepFast) and
// returns the same status protocol as the interpreter's step.
type fastFn func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus

// predecode compiles the loaded program into the per-pc closure table
// the fast path dispatches through. It must be called with the facts
// returned by the verification of exactly c.Prog: a pc inside a verified
// routine extent (facts.Start[pc] >= 0) gets a closure with the
// statically-discharged checks stripped; a pc outside every extent is
// unreachable from the routine table but can still execute through a
// stale program counter after LoadProgram, so it gets a closure with the
// interpreter's full dynamic checks.
func (c *Controller) predecode(facts *program.Facts) {
	code := c.Prog.Code
	fast := make([]fastFn, len(code))
	for pc := range code {
		if facts != nil && int(facts.Start[pc]) >= 0 {
			fast[pc] = compileVerified(code[pc], c.Prog, facts.Start[pc])
		} else {
			fast[pc] = compileUnverified(code[pc])
		}
	}
	c.fast = fast
}

// stepFast executes the single action at r.pc through the pre-decoded
// table. Only the dynamically-decidable preamble checks remain: the pc
// bounds (a stale routine can outlive a LoadProgram swap, and a trailing
// branch can fall through past the last routine) and the runaway budget.
// Everything else is inside the compiled closure.
func (c *Controller) stepFast(cy sim.Cycle, r *run) stepStatus {
	w := &c.walkers[r.walker]
	if r.pc < 0 || int(r.pc) >= len(c.fast) {
		return c.trapStep(cy, r, w, TrapIllegalOp,
			fmt.Sprintf("pc %d outside the %d-word microcode RAM", r.pc, len(c.Prog.Code)))
	}
	r.steps++
	if r.steps > c.Cfg.MaxRoutineSteps {
		return c.trapStep(cy, r, w, TrapRunawayRoutine,
			fmt.Sprintf("routine at %d exceeded %d steps", r.start, c.Cfg.MaxRoutineSteps))
	}
	return c.fast[r.pc](c, cy, r, w)
}

// fbranchPre is the fast path's branch resolver: when the run's live
// routine base matches the pc's compile-time extent base, the taken
// target is the pre-resolved absolute pc; a stale run executing this pc
// under a different base (fall-through past a routine boundary) resolves
// against the live r.start, identically to the interpreter's fbranch.
func (c *Controller) fbranchPre(r *run, taken bool, imm, start, abs int32) {
	if c.Meter != nil {
		c.Meter.BitOps++
	}
	if !taken {
		r.pc++
		return
	}
	if r.start == start {
		r.pc = abs
	} else {
		r.pc = r.start + imm
	}
}

// compileUnverified wraps one instruction from outside every verified
// routine extent: full interpreter semantics (register bounds check, then
// the charged dispatch), minus only the fetch the table already did.
func compileUnverified(in isa.Instr) fastFn {
	return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
		if bad, which := regOOB(in, len(w.regs)); bad {
			return c.trapStep(cy, r, w, TrapRegOOB,
				fmt.Sprintf("%s outside the %d-entry X-register file", which, len(w.regs)))
		}
		c.chargeAction()
		return c.exec1(cy, r, w, in)
	}
}

// compileVerified builds the pre-decoded closure for one instruction
// inside a verified routine extent. The verifier has already proven: the
// op is defined, every register operand the shape uses is inside the
// X-register file, and every immediate is inside its operand's domain
// (environment slot, event, state, fill/writeback word count, peek
// pseudo-slot). Those checks are therefore absent here. Register-valued
// operands (data-RAM addresses and sizes, fill counts from registers,
// live message widths) and machine-state conditions (duplicate allocm,
// queue space, allocation pressure) remain runtime checks, shared with
// the interpreter through the exec* helpers so the two paths cannot
// drift.
func compileVerified(in isa.Instr, p *program.Program, start int32) fastFn {
	d, a, b := in.Dst, in.A, in.B
	imm := in.Imm
	// Pre-resolved branch target for the common case where the run's live
	// routine base equals this pc's compile-time extent base; fbranchPre
	// guards on that and falls back to live resolution otherwise.
	abs := start + imm

	switch in.Op {
	// ---- AGEN: operands resolved, no residual checks ----
	case isa.OpAdd:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(1, 0, 0, 0)
			c.fsetReg(w, d, w.regs[a]+w.regs[b])
			r.pc++
			return stepAgain
		}
	case isa.OpAddi:
		v := uint64(int64(imm))
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(1, 0, 0, 0)
			c.fsetReg(w, d, w.regs[a]+v)
			r.pc++
			return stepAgain
		}
	case isa.OpInc:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(1, 0, 0, 0)
			c.fsetReg(w, d, w.regs[d]+1)
			r.pc++
			return stepAgain
		}
	case isa.OpDec:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(1, 0, 0, 0)
			c.fsetReg(w, d, w.regs[d]-1)
			r.pc++
			return stepAgain
		}
	case isa.OpAnd:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 1, 0)
			c.fsetReg(w, d, w.regs[a]&w.regs[b])
			r.pc++
			return stepAgain
		}
	case isa.OpOr:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 1, 0)
			c.fsetReg(w, d, w.regs[a]|w.regs[b])
			r.pc++
			return stepAgain
		}
	case isa.OpXor:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 1, 0)
			c.fsetReg(w, d, w.regs[a]^w.regs[b])
			r.pc++
			return stepAgain
		}
	case isa.OpNot:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 1, 0)
			c.fsetReg(w, d, ^w.regs[a])
			r.pc++
			return stepAgain
		}
	case isa.OpShl:
		sh := uint(imm & 63)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 0, 1)
			c.fsetReg(w, d, w.regs[a]<<sh)
			r.pc++
			return stepAgain
		}
	case isa.OpShr, isa.OpSrl:
		sh := uint(imm & 63)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 0, 1)
			c.fsetReg(w, d, w.regs[a]>>sh)
			r.pc++
			return stepAgain
		}
	case isa.OpSra:
		sh := uint(imm & 63)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 0, 0, 1)
			c.fsetReg(w, d, uint64(int64(w.regs[a])>>sh))
			r.pc++
			return stepAgain
		}
	case isa.OpMul:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.chargeALU(0, 1, 0, 0)
			c.fsetReg(w, d, w.regs[a]*w.regs[b])
			r.pc++
			return stepAgain
		}
	case isa.OpLi:
		v := uint64(int64(imm))
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fsetReg(w, d, v)
			r.pc++
			return stepAgain
		}
	case isa.OpMov:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fsetReg(w, d, w.regs[a])
			r.pc++
			return stepAgain
		}
	case isa.OpLde:
		// imm-range discharged: the verifier proved imm ∈ [0, EnvSlots).
		ei := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fsetReg(w, d, c.env[ei])
			r.pc++
			return stepAgain
		}
	case isa.OpAllocR:
		mask := uint32(1) << d
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			w.persist |= mask
			c.markLive(w, mask)
			r.pc++
			return stepAgain
		}

	// ---- Queues ----
	case isa.OpEnqFill:
		// The word count comes from a register: its range check stays
		// dynamic, inside execFill.
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execFill(cy, r, w, w.regs[d], int(w.regs[a]))
		}
	case isa.OpEnqFillI:
		// Word-count range discharged: imm ∈ [1, MaxFillWords].
		words := int(uint64(imm))
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execFill(cy, r, w, w.regs[d], words)
		}
	case isa.OpEnqWb:
		// Word-count range discharged; the register-derived source range
		// stays dynamic, inside execWb.
		words := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execWb(cy, r, w, w.regs[d], int32(w.regs[a]), words)
		}
	case isa.OpEnqResp:
		status := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execResp(cy, r, w, status, w.regs[d])
		}
	case isa.OpEnqEv:
		// Event-id range discharged: imm ∈ [0, NumEvents).
		ev := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execEnqEv(r, w, ev)
		}
	case isa.OpPeek:
		// The pseudo-slot split is resolved at compile time; a payload
		// peek keeps its check against the *live* message width, which
		// only the wake-time fill response determines.
		switch {
		case imm == -1:
			return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
				c.chargeAction()
				c.fsetReg(w, d, w.msg.addr)
				r.pc++
				return stepAgain
			}
		case imm == -2:
			return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
				c.chargeAction()
				c.fsetReg(w, d, uint64(len(w.msg.data)))
				r.pc++
				return stepAgain
			}
		case imm >= 0:
			pi := int(imm)
			return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
				c.chargeAction()
				if pi >= len(w.msg.data) {
					return c.trapStep(cy, r, w, TrapPeekOOB,
						fmt.Sprintf("peek %d beyond %d-word message", pi, len(w.msg.data)))
				}
				c.fsetReg(w, d, w.msg.data[pi])
				r.pc++
				return stepAgain
			}
		}
	case isa.OpDeq:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			r.pc++
			return stepAgain
		}

	// ---- Meta-tags ----
	case isa.OpAllocM:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execAllocM(cy, r, w)
		}
	case isa.OpDeallocM:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.execDeallocM(w)
			r.pc++
			return stepAgain
		}
	case isa.OpUpdate:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execUpdate(cy, r, w, int32(w.regs[d]), int32(w.regs[a]))
		}
	case isa.OpState:
		// State-range and wakeable-state checks discharged.
		s := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execYield(w, s)
		}
	case isa.OpHalt:
		s := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execHalt(w, s)
		}
	case isa.OpAbort:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execAbort(w)
		}

	// ---- Control: the absolute target is pre-resolved against this
	// pc's compile-time extent base (abs, above). That is only valid
	// while the run's live base matches: the verifier accepts a routine
	// whose last action is a conditional branch, and its not-taken path
	// falls through into the next extent with the original routine's
	// base still in force — fbranchPre guards on r.start and resolves
	// live in that case, exactly like the interpreter.
	case isa.OpBmiss:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, w.entry == nil || w.entry.State != program.StateValid, imm, start, abs)
			return stepAgain
		}
	case isa.OpBhit:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, w.entry != nil && w.entry.State == program.StateValid, imm, start, abs)
			return stepAgain
		}
	case isa.OpBeq:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, w.regs[d] == w.regs[a], imm, start, abs)
			return stepAgain
		}
	case isa.OpBnz:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, w.regs[d] != 0, imm, start, abs)
			return stepAgain
		}
	case isa.OpBlt:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, int64(w.regs[d]) < int64(w.regs[a]), imm, start, abs)
			return stepAgain
		}
	case isa.OpBge:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, int64(w.regs[d]) >= int64(w.regs[a]), imm, start, abs)
			return stepAgain
		}
	case isa.OpBle:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, int64(w.regs[d]) <= int64(w.regs[a]), imm, start, abs)
			return stepAgain
		}
	case isa.OpJmp:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.fbranchPre(r, true, imm, start, abs)
			return stepAgain
		}

	// ---- Data RAM ----
	case isa.OpAllocD:
		// Register-valued sector count: range stays dynamic.
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execAllocData(cy, r, w, d, int(int64(w.regs[a])))
		}
	case isa.OpAllocDI:
		// Sector-count range discharged when the verifier knew the RAM
		// capacity; allocation pressure (makeRoom/replay) stays dynamic.
		n := int(imm)
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execAllocData(cy, r, w, d, n)
		}
	case isa.OpDeallocD:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			c.execDeallocD(w)
			r.pc++
			return stepAgain
		}
	case isa.OpReadD:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execReadD(cy, r, w, d, w.regs[a])
		}
	case isa.OpWriteD:
		return func(c *Controller, cy sim.Cycle, r *run, w *walker) stepStatus {
			c.chargeAction()
			return c.execWriteD(cy, r, w, w.regs[d], w.regs[a])
		}
	}
	// Anything the verifier accepted but this compiler does not know is a
	// contract skew between the two; fall back to reference semantics
	// rather than guessing.
	return compileUnverified(in)
}
