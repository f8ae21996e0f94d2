package program

import (
	"fmt"
	"sort"
	"sync/atomic"

	"xcache/internal/isa"
)

// VerifyConfig describes the controller instance a program is about to be
// loaded into. Verify checks the program against these limits so every
// statically-decidable trap is rejected before the first cycle runs.
type VerifyConfig struct {
	// NumXRegs is the per-walker X-register file size; every register
	// operand must index below it.
	NumXRegs int
	// MaxFillWords bounds immediate fill requests (enqfilli), writebacks
	// (enqwb) and the message width a Fill routine may peek into.
	MaxFillWords int
	// MaxRoutineSteps is the runtime runaway budget. Any acyclic path
	// through a routine executes each instruction at most once, so a
	// routine no longer than the budget cannot exhaust it without looping
	// — and loops are the runtime runaway trap's job, not the verifier's.
	MaxRoutineSteps int
	// DataSectors is the data-RAM capacity; an immediate allocation
	// (allocdi) larger than the whole RAM can never succeed. 0 disables
	// the check (capacity unknown at verify time).
	DataSectors int
	// EnvSlots is the number of lde environment operands (16 in hardware).
	EnvSlots int
}

// DefaultVerifyConfig mirrors the ctrl.Config defaults (Table 3 instance).
func DefaultVerifyConfig() VerifyConfig {
	return VerifyConfig{NumXRegs: 16, MaxFillWords: 8, MaxRoutineSteps: 4096, EnvSlots: 16}
}

// VerifyError pinpoints the first rejected instruction: which transition's
// routine, the absolute microcode index, and why.
type VerifyError struct {
	Program string
	State   string // "" for program-level (table) errors
	Event   string
	PC      int // absolute index into Code, -1 for table errors
	Instr   isa.Instr
	Reason  string
}

// Error implements error.
func (e *VerifyError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("verify %s: %s", e.Program, e.Reason)
	}
	return fmt.Sprintf("verify %s: [%s, %s] pc %d (%s): %s",
		e.Program, e.State, e.Event, e.PC, e.Instr.String(), e.Reason)
}

// verifyCalls counts Verify invocations so bench_test.go can pin the
// load-once contract: verification must never run on the per-cycle path.
var verifyCalls atomic.Int64

// VerifyCalls returns the number of Verify invocations so far.
func VerifyCalls() int64 { return verifyCalls.Load() }

// Facts is the per-instruction evidence a successful verification
// produces. The controller's pre-decoded executor (ctrl exec_fast)
// consumes it to decide, per microcode word, which dynamic checks the
// verifier has already discharged. See DESIGN.md §11 for the soundness
// argument tying each fact to the checks it licenses.
type Facts struct {
	// Start[pc] is the absolute start of the routine extent containing
	// pc — the region verifyRoutine checked, running from a table pointer
	// to the next pointer (or the end of the microcode RAM) — or -1 when
	// pc precedes every routine pointer. A pc with Start[pc] >= 0 passed
	// every static check (valid op, register operands in the X-register
	// file, immediates within their operand domains); a pc with -1 is
	// unreachable from any table entry but can still execute through a
	// stale program counter after LoadProgram, so it gets no discharge.
	Start []int32
}

// Verify statically checks a compiled or binary-loaded program against a
// controller configuration. It guarantees the absence of every
// statically-decidable trap: undefined ops, register operands outside the
// X-register file, immediates outside their operand's domain (states,
// events, environment slots, fill word counts, message peeks), branch
// targets escaping their routine, routines that can fall off their end,
// yields into states no event can ever wake, and straight-line step
// counts over the runaway budget. Register-indirect accesses (data-RAM
// addresses, register fill sizes) and looping routines remain runtime
// concerns, covered by the ctrl trap model.
func Verify(p *Program, cfg VerifyConfig) error {
	_, err := VerifyFacts(p, cfg)
	return err
}

// VerifyFacts is Verify, additionally returning the per-instruction facts
// the checks established (nil on rejection). One verifier invocation is
// counted whichever entry point is used.
func VerifyFacts(p *Program, cfg VerifyConfig) (*Facts, error) {
	verifyCalls.Add(1)
	def := DefaultVerifyConfig()
	if cfg.NumXRegs <= 0 {
		cfg.NumXRegs = def.NumXRegs
	}
	if cfg.MaxFillWords <= 0 {
		cfg.MaxFillWords = def.MaxFillWords
	}
	if cfg.MaxRoutineSteps <= 0 {
		cfg.MaxRoutineSteps = def.MaxRoutineSteps
	}
	if cfg.EnvSlots <= 0 {
		cfg.EnvSlots = def.EnvSlots
	}

	tabErr := func(reason string) error {
		return &VerifyError{Program: p.Name, PC: -1, Reason: reason}
	}
	if p.NumStates() == 0 || p.NumEvents() == 0 {
		return nil, tabErr("empty routine table")
	}
	for st, row := range p.Table {
		if len(row) != p.NumEvents() {
			return nil, tabErr(fmt.Sprintf("ragged routine table: state %d has %d events, want %d", st, len(row), p.NumEvents()))
		}
	}
	if p.NumStates() <= StateValid || EvFill >= p.NumEvents() {
		return nil, tabErr("routine table smaller than the built-in states/events")
	}
	_, okLd := p.Lookup(StateInvalid, EvMetaLoad)
	_, okSt := p.Lookup(StateInvalid, EvMetaStore)
	if !okLd && !okSt {
		return nil, tabErr("no (Default, MetaLoad) or (Default, MetaStore) transition; misses cannot start")
	}

	// Routine extents: each table pointer starts a routine that runs to
	// the next pointer (or the end of the microcode RAM). Entries may
	// share a start; each is verified under its own event's message width.
	starts := make([]int, 0, len(p.Starts))
	seen := map[int]bool{}
	for st := range p.Table {
		for ev, pc := range p.Table[st] {
			if pc == -1 {
				continue
			}
			if pc < 0 || int(pc) >= len(p.Code) {
				return nil, tabErr(fmt.Sprintf("routine pointer (%d,%d)=%d outside microcode", st, ev, pc))
			}
			if !seen[int(pc)] {
				seen[int(pc)] = true
				starts = append(starts, int(pc))
			}
		}
	}
	sort.Ints(starts)
	extent := func(start int) int {
		i := sort.SearchInts(starts, start+1)
		if i < len(starts) {
			return starts[i]
		}
		return len(p.Code)
	}
	// hasWake[s] reports whether any event can run a routine for state s,
	// i.e. whether a walker yielding into s can ever be woken again.
	hasWake := make([]bool, p.NumStates())
	for st, row := range p.Table {
		for _, pc := range row {
			if pc >= 0 {
				hasWake[st] = true
				break
			}
		}
	}

	for st := range p.Table {
		for ev, pc := range p.Table[st] {
			if pc == -1 {
				continue
			}
			if err := verifyRoutine(p, cfg, st, ev, int(pc), extent(int(pc)), hasWake); err != nil {
				return nil, err
			}
		}
	}
	facts := &Facts{Start: make([]int32, len(p.Code))}
	for i := range facts.Start {
		facts.Start[i] = -1
	}
	for _, s := range starts {
		for pc := s; pc < extent(s); pc++ {
			facts.Start[pc] = int32(s)
		}
	}
	return facts, nil
}

// verifyRoutine checks one (state, event) routine occupying Code[start:end).
func verifyRoutine(p *Program, cfg VerifyConfig, st, ev, start, end int, hasWake []bool) error {
	n := end - start
	fail := func(pc int, reason string) error {
		return &VerifyError{Program: p.Name, State: p.StateNames[st], Event: p.EventNames[ev],
			PC: pc, Instr: p.Code[pc], Reason: reason}
	}
	if n <= 0 {
		return &VerifyError{Program: p.Name, State: p.StateNames[st], Event: p.EventNames[ev],
			PC: -1, Reason: "empty routine"}
	}
	if n > cfg.MaxRoutineSteps {
		return fail(start, fmt.Sprintf("routine of %d actions exceeds the %d-step runaway budget on a straight-line path", n, cfg.MaxRoutineSteps))
	}
	// Only a Fill response carries message payload words; every other
	// event's message exposes just the address (-1) and word-count (-2)
	// pseudo-slots.
	msgWords := 0
	if ev == EvFill {
		msgWords = cfg.MaxFillWords
	}
	for pc := start; pc < end; pc++ {
		in := p.Code[pc]
		if !in.Op.Valid() {
			return fail(pc, fmt.Sprintf("undefined op %d", in.Op))
		}
		// Register operands the shape actually uses. Unused fields are
		// ignored: decode reconstructs them from don't-care bits.
		regs, nregs := in.RegOperands()
		for k := 0; k < nregs; k++ {
			if int(regs[k]) >= cfg.NumXRegs {
				return fail(pc, fmt.Sprintf("register %s=r%d outside the %d-entry X-register file",
					isa.RegFieldName(k), regs[k], cfg.NumXRegs))
			}
		}
		if in.Imm < isa.ImmMin || in.Imm > isa.ImmMax {
			return fail(pc, fmt.Sprintf("immediate %d outside the 16-bit field", in.Imm))
		}
		switch in.Op {
		case isa.OpState, isa.OpHalt:
			if in.Imm < 0 || int(in.Imm) >= p.NumStates() {
				return fail(pc, fmt.Sprintf("state operand %d out of range [0,%d)", in.Imm, p.NumStates()))
			}
			if in.Op == isa.OpState && !hasWake[in.Imm] {
				return fail(pc, fmt.Sprintf("yield into state %s, which no event can wake", p.StateNames[in.Imm]))
			}
		case isa.OpEnqEv:
			if in.Imm < 0 || int(in.Imm) >= p.NumEvents() {
				return fail(pc, fmt.Sprintf("event operand %d out of range [0,%d)", in.Imm, p.NumEvents()))
			}
		case isa.OpLde:
			if in.Imm < 0 || int(in.Imm) >= cfg.EnvSlots {
				return fail(pc, fmt.Sprintf("environment operand %d out of range [0,%d)", in.Imm, cfg.EnvSlots))
			}
		case isa.OpPeek:
			if in.Imm < -2 || int(in.Imm) >= msgWords {
				return fail(pc, fmt.Sprintf("message peek %d outside the %d-word %s message (pseudo-slots -1 address, -2 word count)",
					in.Imm, msgWords, p.EventNames[ev]))
			}
		case isa.OpEnqFillI:
			if in.Imm < 1 || int(in.Imm) > cfg.MaxFillWords {
				return fail(pc, fmt.Sprintf("fill of %d words outside [1,%d]", in.Imm, cfg.MaxFillWords))
			}
		case isa.OpEnqWb:
			if in.Imm < 1 || int(in.Imm) > cfg.MaxFillWords {
				return fail(pc, fmt.Sprintf("writeback of %d words outside [1,%d]", in.Imm, cfg.MaxFillWords))
			}
		case isa.OpAllocDI:
			if in.Imm < 1 {
				return fail(pc, fmt.Sprintf("allocation of %d sectors; need at least 1", in.Imm))
			}
			if cfg.DataSectors > 0 && int(in.Imm) > cfg.DataSectors {
				return fail(pc, fmt.Sprintf("allocation of %d sectors exceeds the %d-sector data RAM", in.Imm, cfg.DataSectors))
			}
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || int(in.Imm) >= n {
				return fail(pc, fmt.Sprintf("branch target %d outside routine of %d actions", in.Imm, n))
			}
		} else if pc == end-1 && !in.Op.IsTerminal() {
			return fail(pc, "routine can fall off its end (last action is not terminal)")
		}
	}
	return nil
}
