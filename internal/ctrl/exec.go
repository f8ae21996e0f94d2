package ctrl

import (
	"fmt"
	"math/bits"

	"xcache/internal/dram"
	"xcache/internal/isa"
	"xcache/internal/metatag"
	"xcache/internal/program"
	"xcache/internal/sim"
)

type stepStatus uint8

const (
	stepAgain stepStatus = iota // action retired, routine continues
	stepStall                   // structural hazard (full queue); retry next cycle
	stepDone                    // routine ended (terminal action or walker freed)
)

// step executes the single action at r.pc through the reference
// interpreter: fetch, decode, bounds-check, dispatch — every cycle. The
// executor is in-order and non-blocking: the only way a routine waits is
// a structural stall on a full queue. Structural faults — an out-of-range
// register, a runaway routine, a data-RAM access outside the array —
// raise a typed Trap that quiesces the walker instead of panicking; the
// static verifier rejects most of them at load, but register-indirect
// values and loops are only decidable here.
//
// This is the semantic reference the pre-decoded path (exec_fast.go) is
// differentially tested against; keep the two in lockstep.
func (c *Controller) step(cy sim.Cycle, r *run) stepStatus {
	w := &c.walkers[r.walker]
	if r.pc < 0 || int(r.pc) >= len(c.Prog.Code) {
		return c.trapStep(cy, r, w, TrapIllegalOp,
			fmt.Sprintf("pc %d outside the %d-word microcode RAM", r.pc, len(c.Prog.Code)))
	}
	in := c.Prog.Code[r.pc]
	r.steps++
	if r.steps > c.Cfg.MaxRoutineSteps {
		return c.trapStep(cy, r, w, TrapRunawayRoutine,
			fmt.Sprintf("routine at %d exceeded %d steps", r.start, c.Cfg.MaxRoutineSteps))
	}
	if bad, which := regOOB(in, len(w.regs)); bad {
		return c.trapStep(cy, r, w, TrapRegOOB,
			fmt.Sprintf("%s outside the %d-entry X-register file", which, len(w.regs)))
	}
	c.chargeAction()
	return c.exec1(cy, r, w, in)
}

// chargeAction accounts one issued action: microcode fetch energy
// (hardwired baselines have no routine RAM) and the action counters. A
// stalled action is re-charged on every retry cycle, exactly as the
// pipeline slot it occupies is.
func (c *Controller) chargeAction() {
	if c.Meter != nil && !c.Cfg.Hardwired {
		c.Meter.RtnBytes += isa.WordBytes
	}
	c.stats.Actions++
	c.cycActions++
}

// exec1 dispatches one already-fetched, bounds-checked, charged action.
// Both executors funnel their residual dynamic checks through the exec*
// helpers below so trap kinds, details and ordering cannot diverge.
func (c *Controller) exec1(cy sim.Cycle, r *run, w *walker, in isa.Instr) stepStatus {
	// Register operands are bounds-checked once per action (regOOB or the
	// load-time verifier), so the accessors index directly.
	reg := func(i uint8) uint64 { return w.regs[i] }
	setReg := func(i uint8, v uint64) { c.fsetReg(w, i, v) }
	branch := func(taken bool) { c.fbranch(r, taken, in.Imm) }

	switch in.Op {
	// ---- AGEN ----
	case isa.OpAdd:
		c.chargeALU(1, 0, 0, 0)
		setReg(in.Dst, reg(in.A)+reg(in.B))
	case isa.OpAddi:
		c.chargeALU(1, 0, 0, 0)
		setReg(in.Dst, reg(in.A)+uint64(int64(in.Imm)))
	case isa.OpInc:
		c.chargeALU(1, 0, 0, 0)
		setReg(in.Dst, reg(in.Dst)+1)
	case isa.OpDec:
		c.chargeALU(1, 0, 0, 0)
		setReg(in.Dst, reg(in.Dst)-1)
	case isa.OpAnd:
		c.chargeALU(0, 0, 1, 0)
		setReg(in.Dst, reg(in.A)&reg(in.B))
	case isa.OpOr:
		c.chargeALU(0, 0, 1, 0)
		setReg(in.Dst, reg(in.A)|reg(in.B))
	case isa.OpXor:
		c.chargeALU(0, 0, 1, 0)
		setReg(in.Dst, reg(in.A)^reg(in.B))
	case isa.OpNot:
		c.chargeALU(0, 0, 1, 0)
		setReg(in.Dst, ^reg(in.A))
	case isa.OpShl:
		c.chargeALU(0, 0, 0, 1)
		setReg(in.Dst, reg(in.A)<<uint(in.Imm&63))
	case isa.OpShr, isa.OpSrl:
		c.chargeALU(0, 0, 0, 1)
		setReg(in.Dst, reg(in.A)>>uint(in.Imm&63))
	case isa.OpSra:
		c.chargeALU(0, 0, 0, 1)
		setReg(in.Dst, uint64(int64(reg(in.A))>>uint(in.Imm&63)))
	case isa.OpMul:
		c.chargeALU(0, 1, 0, 0)
		setReg(in.Dst, reg(in.A)*reg(in.B))
	case isa.OpLi:
		setReg(in.Dst, uint64(int64(in.Imm)))
	case isa.OpMov:
		setReg(in.Dst, reg(in.A))
	case isa.OpLde:
		if in.Imm < 0 || int(in.Imm) >= len(c.env) {
			return c.trapStep(cy, r, w, TrapImmRange,
				fmt.Sprintf("environment operand %d out of range [0,%d)", in.Imm, len(c.env)))
		}
		setReg(in.Dst, c.env[in.Imm])
	case isa.OpAllocR:
		// allocR marks a register as walker state that must survive
		// yields (§4.2: "routines allocate temporary X-register to store
		// the access key and the address of the DRAM refill being waited
		// on"). Unmarked registers are pipeline temporaries and are
		// cleared when the routine yields.
		w.persist |= 1 << in.Dst
		c.markLive(w, 1<<in.Dst)

	// ---- Queues ----
	case isa.OpEnqFill, isa.OpEnqFillI:
		words := int(uint64(in.Imm))
		if in.Op == isa.OpEnqFill {
			words = int(reg(in.A))
		}
		return c.execFill(cy, r, w, reg(in.Dst), words)
	case isa.OpEnqWb:
		return c.execWb(cy, r, w, reg(in.Dst), int32(reg(in.A)), int(in.Imm))
	case isa.OpEnqResp:
		return c.execResp(cy, r, w, int(in.Imm), reg(in.Dst))
	case isa.OpEnqEv:
		if in.Imm < 0 || int(in.Imm) >= c.Prog.NumEvents() {
			return c.trapStep(cy, r, w, TrapImmRange,
				fmt.Sprintf("event operand %d out of range [0,%d)", in.Imm, c.Prog.NumEvents()))
		}
		return c.execEnqEv(r, w, int(in.Imm))
	case isa.OpPeek:
		switch {
		case in.Imm == -1:
			setReg(in.Dst, w.msg.addr)
		case in.Imm == -2:
			setReg(in.Dst, uint64(w.msg.data.Len()))
		case in.Imm < 0 || int(in.Imm) >= w.msg.data.Len():
			// A negative peek other than the -1/-2 pseudo-slots used to
			// fall through to a raw negative slice index; both directions
			// now trap.
			return c.trapStep(cy, r, w, TrapPeekOOB,
				fmt.Sprintf("peek %d beyond %d-word message", in.Imm, w.msg.data.Len()))
		default:
			setReg(in.Dst, w.msg.data.Slice()[in.Imm])
		}
	case isa.OpDeq:
		// The front-end consumed the message at wake; explicit deq is an
		// accounting no-op retained for spec fidelity.

	// ---- Meta-tags ----
	case isa.OpAllocM:
		return c.execAllocM(cy, r, w)
	case isa.OpDeallocM:
		c.execDeallocM(w)
	case isa.OpUpdate:
		return c.execUpdate(cy, r, w, int32(reg(in.Dst)), int32(reg(in.A)))
	case isa.OpState:
		if in.Imm < 0 || int(in.Imm) >= c.Prog.NumStates() {
			return c.trapStep(cy, r, w, TrapImmRange,
				fmt.Sprintf("state operand %d out of range [0,%d)", in.Imm, c.Prog.NumStates()))
		}
		return c.execYield(w, int(in.Imm))
	case isa.OpHalt:
		if in.Imm < 0 || int(in.Imm) >= c.Prog.NumStates() {
			return c.trapStep(cy, r, w, TrapImmRange,
				fmt.Sprintf("state operand %d out of range [0,%d)", in.Imm, c.Prog.NumStates()))
		}
		return c.execHalt(w, int(in.Imm))
	case isa.OpAbort:
		return c.execAbort(w)

	// ---- Control ----
	case isa.OpBmiss:
		branch(w.entry == nil || w.entry.State != program.StateValid)
		return stepAgain
	case isa.OpBhit:
		branch(w.entry != nil && w.entry.State == program.StateValid)
		return stepAgain
	case isa.OpBeq:
		branch(reg(in.Dst) == reg(in.A))
		return stepAgain
	case isa.OpBnz:
		branch(reg(in.Dst) != 0)
		return stepAgain
	case isa.OpBlt:
		branch(int64(reg(in.Dst)) < int64(reg(in.A)))
		return stepAgain
	case isa.OpBge:
		branch(int64(reg(in.Dst)) >= int64(reg(in.A)))
		return stepAgain
	case isa.OpBle:
		branch(int64(reg(in.Dst)) <= int64(reg(in.A)))
		return stepAgain
	case isa.OpJmp:
		branch(true)
		return stepAgain

	// ---- Data RAM ----
	case isa.OpAllocD, isa.OpAllocDI:
		n := int(in.Imm)
		if in.Op == isa.OpAllocD {
			n = int(int64(reg(in.A)))
		}
		return c.execAllocData(cy, r, w, in.Dst, n)
	case isa.OpDeallocD:
		c.execDeallocD(w)
	case isa.OpReadD:
		return c.execReadD(cy, r, w, in.Dst, reg(in.A))
	case isa.OpWriteD:
		return c.execWriteD(cy, r, w, reg(in.Dst), reg(in.A))

	default:
		return c.trapStep(cy, r, w, TrapIllegalOp, fmt.Sprintf("undefined or unimplemented op %s", in.Op.Name()))
	}
	r.pc++
	return stepAgain
}

// fsetReg writes a walker register, marking it live and charging the
// register-file write energy (the interpreter's setReg and the fast
// path's closures share it).
func (c *Controller) fsetReg(w *walker, i uint8, v uint64) {
	w.regs[i] = v
	c.markLive(w, 1<<i)
	if c.Meter != nil {
		c.Meter.RegBitsWritten += 64
	}
}

// markLive adds the registers in mask to the walker's live set, keeping
// the controller's running total of live registers current.
func (c *Controller) markLive(w *walker, mask uint32) {
	c.liveRegs += uint64(bits.OnesCount32(mask &^ w.liveMask))
	w.liveMask |= mask
}

// fbranch resolves a branch: one comparator charge, then the pc moves to
// the routine-relative target or falls through. The target is computed
// against the *live* r.start, not the compile-time extent: a trailing
// not-taken branch may legally fall through into the next routine extent
// with the original routine's base still in force.
func (c *Controller) fbranch(r *run, taken bool, imm int32) {
	if c.Meter != nil {
		c.Meter.BitOps++
	}
	if taken {
		r.pc = r.start + imm
	} else {
		r.pc++
	}
}

// execFill pushes a DRAM read of words at addr. The word count is
// runtime-checked here because enqfill takes it from a register; the
// verifier discharges the check for enqfilli's immediate form, which
// reaches this helper only with a compile-time-valid count.
func (c *Controller) execFill(cy sim.Cycle, r *run, w *walker, addr uint64, words int) stepStatus {
	if words <= 0 || words > c.Cfg.MaxFillWords {
		return c.trapStep(cy, r, w, TrapFillOverflow,
			fmt.Sprintf("fill of %d words (MaxFillWords=%d)", words, c.Cfg.MaxFillWords))
	}
	if !c.MemReq.CanPush() {
		return stepStall
	}
	// The address bus is word-granular: low bits a routine computed into
	// the address register are dropped, exactly as hardware would.
	addr &^= 7
	c.MemReq.MustPush(dram.Request{ID: uint64(w.id), Addr: addr, Words: words})
	c.outstandingFills++
	w.fills++
	c.stats.FillsIssued++
	if c.Cfg.FillTimeout > 0 {
		c.fillTable = append(c.fillTable, fillRec{walker: w.id, addr: addr, words: words, issued: cy})
	}
	if c.outstandingFills > c.stats.MaxFillsInFlight {
		c.stats.MaxFillsInFlight = c.outstandingFills
	}
	if c.Meter != nil {
		c.Meter.QueueBytes += 16
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += uint64(words) * 8
	}
	r.pc++
	return stepAgain
}

// execWb pushes a DRAM writeback of words data-RAM words starting at
// base. The source range is register-derived, so its bounds stay a
// runtime trap on both executor paths.
func (c *Controller) execWb(cy sim.Cycle, r *run, w *walker, addr uint64, base int32, words int) stepStatus {
	if words <= 0 || words > c.Cfg.MaxFillWords {
		return c.trapStep(cy, r, w, TrapFillOverflow,
			fmt.Sprintf("writeback of %d words (MaxFillWords=%d)", words, c.Cfg.MaxFillWords))
	}
	if base < 0 || int(base)+words > c.Data.Words() {
		return c.trapStep(cy, r, w, TrapDataOOB,
			fmt.Sprintf("writeback source [%d,%d) outside the %d-word data RAM", base, int(base)+words, c.Data.Words()))
	}
	if !c.MemReq.CanPush() {
		return stepStall
	}
	req := dram.Request{ID: wbIDFlag | uint64(w.id), Addr: addr &^ 7, Words: words, Write: true}
	data := req.Data.Make(&c.pool, words)
	for i := range data {
		data[i] = c.Data.Read(base + int32(i))
	}
	c.MemReq.MustPush(req)
	c.stats.WritebacksIssued++
	if c.Meter != nil {
		c.Meter.QueueBytes += 16
		c.Meter.DRAMAccesses++
		c.Meter.DRAMBytes += uint64(words) * 8
	}
	r.pc++
	return stepAgain
}

// execResp answers the walker's origin request with status/value.
func (c *Controller) execResp(cy sim.Cycle, r *run, w *walker, status int, value uint64) stepStatus {
	if !c.RespQ.CanPush() {
		return stepStall
	}
	resp := MetaResp{ID: w.origin.ID, Status: status, Value: value}
	if resp.Status == program.StatusOK && w.entry != nil {
		resp.Words = int(w.entry.SectorCount) * c.Data.Cfg.WordsPerSector
		// The refilled sectors stream to the datapath through the
		// data port, exactly like a hit return.
		if resp.Words > 0 {
			c.snapshot(&resp.Data, w.entry.SectorBase, resp.Words)
		}
	}
	if resp.Status == program.StatusNotFound {
		c.stats.NotFound++
	}
	c.RespQ.MustPush(resp)
	w.responded = true
	c.stats.Responses++
	c.noteLatency(w.origin, cy, false)
	if c.Meter != nil {
		c.Meter.QueueBytes += 16
	}
	r.pc++
	return stepAgain
}

// execEnqEv enqueues internal event ev to the walker itself. The event
// id was range-checked by the caller (interpreter) or the verifier (fast
// path).
func (c *Controller) execEnqEv(r *run, w *walker, ev int) stepStatus {
	if !c.evq.CanPush() {
		return stepStall
	}
	c.evq.MustPush(internalEvent{ev: ev, w: w.id})
	if c.Meter != nil {
		c.Meter.QueueBytes += 8
	}
	r.pc++
	return stepAgain
}

// execAllocM allocates a meta-tag entry for the walker's key, evicting
// (and possibly writing back) an LRU-stable victim.
func (c *Controller) execAllocM(cy sim.Cycle, r *run, w *walker) stepStatus {
	if w.entry != nil {
		// A second allocm would double-allocate the key in the
		// meta-tag array (which asserts on duplicates).
		return c.trapStep(cy, r, w, TrapAllocOverflow, "duplicate allocm: walker already holds an entry")
	}
	if !c.MemReq.CanPush() {
		return stepStall // a dirty victim may need a writeback slot
	}
	entry, ev, ok := c.Tags.Alloc(w.key, w.state, w.id)
	if !ok {
		// Every way transient: hand the request back and retire the
		// walker; the replay path re-probes once a conflicting walker
		// settles.
		c.stats.AllocRetries++
		c.trace(TraceEvent{Kind: TraceAllocRetry, Key: w.key})
		c.replay = append(c.replay, w.origin)
		c.finish(w, false)
		return stepDone
	}
	w.entry = entry
	c.trace(TraceEvent{Kind: TraceAlloc, Key: w.key, State: w.state})
	c.reclaim(ev)
	r.pc++
	return stepAgain
}

// execDeallocM releases the walker's entry and its sectors (no-op when
// it holds none).
func (c *Controller) execDeallocM(w *walker) {
	if w.entry != nil {
		if w.entry.SectorCount > 0 {
			c.Data.Free(w.entry.SectorBase, w.entry.SectorCount)
		}
		c.Tags.Dealloc(w.entry)
		w.entry = nil
		c.trace(TraceEvent{Kind: TraceDealloc, Key: w.key})
	}
}

// execUpdate points the walker's entry at the sector run [base/wlen,
// base/wlen+count). Both operands are register values, so alignment and
// range stay runtime traps on both executor paths.
func (c *Controller) execUpdate(cy sim.Cycle, r *run, w *walker, base, count int32) stepStatus {
	if w.entry == nil {
		return c.trapStep(cy, r, w, TrapMisalignedUpdate, "update with no meta-tag entry (missing allocm)")
	}
	wlen := int32(c.Data.Cfg.WordsPerSector)
	if base < 0 || base%wlen != 0 {
		return c.trapStep(cy, r, w, TrapMisalignedUpdate,
			fmt.Sprintf("update base %d not sector aligned (wlen=%d)", base, wlen))
	}
	if count < 0 || int(base/wlen)+int(count) > c.Data.Cfg.Sectors {
		return c.trapStep(cy, r, w, TrapDataOOB,
			fmt.Sprintf("update sector run [%d,%d) outside the %d-sector data RAM",
				base/wlen, int(base/wlen)+int(count), c.Data.Cfg.Sectors))
	}
	w.entry.SectorBase = base / wlen
	w.entry.SectorCount = count
	c.Tags.Update()
	r.pc++
	return stepAgain
}

// execYield parks the walker in state s: only allocr-marked registers
// survive; scratch registers are freed (and cleared, so specs cannot
// silently rely on them).
func (c *Controller) execYield(w *walker, s int) stepStatus {
	c.setState(w, s)
	w.running = false
	for i := range w.regs {
		if w.persist&(1<<uint(i)) == 0 {
			w.regs[i] = 0
		}
	}
	c.liveRegs -= uint64(bits.OnesCount32(w.liveMask &^ w.persist))
	w.liveMask = w.persist
	return stepDone
}

// execHalt settles the entry in state s and frees the walker.
func (c *Controller) execHalt(w *walker, s int) stepStatus {
	c.setState(w, s)
	if w.entry != nil {
		w.entry.Walker = int32(-1)
		if w.isStore {
			w.entry.Dirty = true
		}
	}
	c.trace(TraceEvent{Kind: TraceSettle, Key: w.key, Store: w.isStore, HasEntry: w.entry != nil})
	c.finish(w, false)
	return stepDone
}

// execAbort deallocates the entry (if any) and frees the walker with a
// not-found disposition.
func (c *Controller) execAbort(w *walker) stepStatus {
	if w.entry != nil {
		if w.entry.SectorCount > 0 {
			c.Data.Free(w.entry.SectorBase, w.entry.SectorCount)
		}
		c.Tags.Dealloc(w.entry)
		w.entry = nil
	}
	c.trace(TraceEvent{Kind: TraceAbort, Key: w.key})
	c.finish(w, true)
	return stepDone
}

// execAllocData allocates n data-RAM sectors into dst, evicting stable
// entries via makeRoom when the free pool is exhausted.
func (c *Controller) execAllocData(cy sim.Cycle, r *run, w *walker, dst uint8, n int) stepStatus {
	if n <= 0 || n > c.Data.Cfg.Sectors {
		// An over-capacity request would replay forever (no eviction
		// can ever make room), so it traps rather than livelocks.
		return c.trapStep(cy, r, w, TrapAllocOverflow,
			fmt.Sprintf("allocation of %d sectors (data RAM holds %d)", n, c.Data.Cfg.Sectors))
	}
	base, ok := c.Data.Alloc(n)
	if !ok {
		if !c.MemReq.CanPush() {
			return stepStall
		}
		if !c.makeRoom(n) {
			// Capacity exhausted by transient entries: retire and
			// replay, as with allocm conflicts.
			c.stats.AllocRetries++
			c.trace(TraceEvent{Kind: TraceAllocRetry, Key: w.key})
			if w.entry != nil {
				c.Tags.Dealloc(w.entry)
				w.entry = nil
			}
			c.replay = append(c.replay, w.origin)
			c.finish(w, false)
			return stepDone
		}
		return stepStall // retry the allocation next cycle
	}
	c.fsetReg(w, dst, uint64(c.Data.SectorWordBase(base)))
	r.pc++
	return stepAgain
}

// execDeallocD frees the walker entry's sectors.
func (c *Controller) execDeallocD(w *walker) {
	if w.entry != nil && w.entry.SectorCount > 0 {
		c.Data.Free(w.entry.SectorBase, w.entry.SectorCount)
		w.entry.SectorBase, w.entry.SectorCount = 0, 0
	}
}

// execReadD loads data-RAM word a into dst; the index is a register
// value, so the bounds stay a runtime trap.
func (c *Controller) execReadD(cy sim.Cycle, r *run, w *walker, dst uint8, a uint64) stepStatus {
	idx := int32(a)
	if idx < 0 || int(idx) >= c.Data.Words() {
		return c.trapStep(cy, r, w, TrapDataOOB,
			fmt.Sprintf("read of word %d outside the %d-word data RAM", idx, c.Data.Words()))
	}
	c.fsetReg(w, dst, c.Data.Read(idx))
	r.pc++
	return stepAgain
}

// execWriteD stores v to data-RAM word d.
func (c *Controller) execWriteD(cy sim.Cycle, r *run, w *walker, d, v uint64) stepStatus {
	idx := int32(d)
	if idx < 0 || int(idx) >= c.Data.Words() {
		return c.trapStep(cy, r, w, TrapDataOOB,
			fmt.Sprintf("write of word %d outside the %d-word data RAM", idx, c.Data.Words()))
	}
	c.Data.Write(idx, v)
	r.pc++
	return stepAgain
}

// regOOB reports whether any register operand the op's shape actually
// uses indexes beyond the nx-entry X-register file. Unused fields carry
// don't-care bits from decode and are ignored.
func regOOB(in isa.Instr, nx int) (bool, string) {
	regs, n := in.RegOperands()
	for k := 0; k < n; k++ {
		if int(regs[k]) >= nx {
			return true, fmt.Sprintf("%s=r%d", isa.RegFieldName(k), regs[k])
		}
	}
	return false, ""
}

func (c *Controller) chargeALU(add, mul, bit, shift uint64) {
	if c.Meter == nil {
		return
	}
	c.Meter.AddOps += add
	c.Meter.MulOps += mul
	c.Meter.BitOps += bit
	c.Meter.ShiftOps += shift
}

// reclaim releases an evicted entry's sectors and writes back dirty data.
// The caller has already guaranteed MemReq space.
func (c *Controller) reclaim(ev metatag.Evicted) {
	if !ev.Valid {
		return
	}
	if ev.SectorCount > 0 {
		if ev.Dirty || c.evictHook != nil {
			data := c.readNote(ev.SectorBase, ev.SectorCount)
			words := len(data)
			handled := false
			if c.evictHook != nil {
				handled = c.evictHook(EvictNote{Key: ev.Key, Dirty: ev.Dirty, Words: data})
			}
			if ev.Dirty && !handled {
				// Dirty meta data spills to a per-cache victim region keyed by
				// tag hash; DSAs that need spilled data back re-walk for it.
				req := dram.Request{ID: wbIDFlag, Addr: c.spillAddr(ev.Key), Words: words, Write: true}
				req.Data.Set(&c.pool, data)
				c.MemReq.MustPush(req)
				c.stats.WritebacksIssued++
				if c.Meter != nil {
					c.Meter.DRAMAccesses++
					c.Meter.DRAMBytes += uint64(words) * 8
				}
			}
		}
		c.Data.Free(ev.SectorBase, ev.SectorCount)
	} else if c.evictHook != nil {
		c.evictHook(EvictNote{Key: ev.Key, Dirty: ev.Dirty})
	}
}

// makeRoom evicts stable entries until n contiguous sectors could
// plausibly be freed. It returns false when nothing is evictable. Each
// eviction may need a writeback slot, so the memory queue is re-checked
// per victim — the caller only guaranteed space for the first.
func (c *Controller) makeRoom(n int) bool {
	evicted := false
	for i := 0; i < 4; i++ {
		if !c.MemReq.CanPush() {
			return evicted
		}
		ev, ok := c.Tags.EvictLRUStable()
		if !ok {
			return evicted
		}
		c.reclaim(ev)
		evicted = true
		if c.Data.FreeSectors() >= n*2 {
			break
		}
	}
	return true
}

func (c *Controller) spillAddr(k metatag.Key) uint64 {
	const spillRegion = uint64(0x4000_0000_0000)
	slot := k.Mix() % (1 << 20)
	return spillRegion + slot*256
}
