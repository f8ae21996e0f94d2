// Package isa defines X-Cache's microcode action set (Fig 8 of the paper).
// Actions are the only primitives the programmable controller can invoke;
// each is implementable atomically in hardware with a fixed one-cycle
// latency. There are five categories, each targeting one hardware module:
// address generation (AGEN), message queues, meta-tags, control flow, and
// the data RAMs.
//
// Instructions encode to 32-bit microcode words stored in the routine RAM.
// The package also provides a small assembler/disassembler used by the
// walker compiler (package program) and by cmd/xcache-asm.
package isa

import "fmt"

// Op identifies a microcode action.
type Op uint8

// The action set. Names track the paper's Fig 8 table; a few pragmatic
// additions (li, mov, mul, lde, jmp) are noted inline.
const (
	OpInvalid Op = iota

	// AGEN — address generation / ALU.
	OpAdd    // add rd, ra, rb
	OpAnd    // and rd, ra, rb
	OpOr     // or rd, ra, rb
	OpXor    // xor rd, ra, rb
	OpAddi   // addi rd, ra, imm
	OpInc    // inc rd
	OpDec    // dec rd
	OpShl    // shl rd, ra, imm
	OpShr    // shr rd, ra, imm (logical; alias of srl kept for the paper's table)
	OpSra    // sra rd, ra, imm (arithmetic)
	OpSrl    // srl rd, ra, imm (logical)
	OpNot    // not rd, ra
	OpAllocR // allocr rd — mark an X-register live (occupancy/energy accounting)
	OpMul    // mul rd, ra, rb — hashing support; costed per Table 4
	OpLi     // li rd, imm — load a small constant
	OpMov    // mov rd, ra
	OpLde    // lde rd, imm — load DSA-specific environment operand #imm

	// Queues — message/request queues.
	OpEnqFill  // enqfill ra, rb — DRAM read: addr in ra, word count in rb
	OpEnqFillI // enqfilli ra, imm — DRAM read with immediate word count
	OpEnqWb    // enqwb ra, rb, imm — DRAM write: addr ra, imm words from data-RAM base in rb
	OpEnqResp  // enqresp ra, imm — respond to the requester: value in ra, status imm
	OpEnqEv    // enqev imm — enqueue internal event #imm to self
	OpPeek     // peek rd, imm — read word #imm of the waking message
	OpDeq      // deq — explicitly consume the waking message

	// Meta-tags.
	OpAllocM   // allocm — allocate a meta-tag entry for the walker's key
	OpDeallocM // deallocm — release the entry
	OpUpdate   // update ra, rb — set entry sector base (ra) and count (rb)
	OpState    // state imm — set entry state, end routine, keep walker (yield)
	OpHalt     // halt imm — set entry state, end routine, free the walker
	OpAbort    // abort — dealloc entry, free the walker (e.g., not-found)

	// Control flow.
	OpBmiss // bmiss lbl — branch if the walker's key misses in the meta-tags
	OpBhit  // bhit lbl — branch if it hits (stable entry)
	OpBeq   // beq ra, rb, lbl
	OpBnz   // bnz ra, lbl
	OpBlt   // blt ra, rb, lbl
	OpBge   // bge ra, rb, lbl
	OpBle   // ble ra, rb, lbl
	OpJmp   // jmp lbl

	// Data RAMs.
	OpAllocD   // allocd rd, ra — allocate ra sectors; data-RAM word base → rd
	OpAllocDI  // allocdi rd, imm — immediate sector count
	OpDeallocD // deallocd — free this walker's entry sectors
	OpReadD    // readd rd, ra — rd = dataRAM[ra]
	OpWriteD   // writed ra, rb — dataRAM[ra] = rb

	opMax
)

// Category groups ops by the hardware module they drive (Fig 8).
type Category uint8

// Action categories.
const (
	CatAGEN Category = iota
	CatQueue
	CatMeta
	CatControl
	CatDataRAM
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatAGEN:
		return "AGEN"
	case CatQueue:
		return "Queue"
	case CatMeta:
		return "Meta"
	case CatControl:
		return "Control"
	case CatDataRAM:
		return "DataRAM"
	}
	return "?"
}

// Category returns the op's hardware category.
func (o Op) Category() Category {
	switch {
	case o >= OpAdd && o <= OpLde:
		return CatAGEN
	case o >= OpEnqFill && o <= OpDeq:
		return CatQueue
	case o >= OpAllocM && o <= OpAbort:
		return CatMeta
	case o >= OpBmiss && o <= OpJmp:
		return CatControl
	default:
		return CatDataRAM
	}
}

// Shape describes an op's operand syntax.
type Shape uint8

// Operand shapes. Letters give operand order: R register, I immediate,
// L label (an immediate that may be written as a label).
const (
	ShapeNone Shape = iota
	ShapeR          // op rd
	ShapeRR         // op rd, ra
	ShapeRRR        // op rd, ra, rb
	ShapeRI         // op rd, imm
	ShapeRRI        // op rd, ra, imm
	ShapeI          // op imm
	ShapeL          // op lbl
	ShapeRL         // op ra, lbl
	ShapeRRL        // op ra, rb, lbl
)

type opInfo struct {
	name  string
	shape Shape
}

var opTable = [opMax]opInfo{
	OpAdd:      {"add", ShapeRRR},
	OpAnd:      {"and", ShapeRRR},
	OpOr:       {"or", ShapeRRR},
	OpXor:      {"xor", ShapeRRR},
	OpAddi:     {"addi", ShapeRRI},
	OpInc:      {"inc", ShapeR},
	OpDec:      {"dec", ShapeR},
	OpShl:      {"shl", ShapeRRI},
	OpShr:      {"shr", ShapeRRI},
	OpSra:      {"sra", ShapeRRI},
	OpSrl:      {"srl", ShapeRRI},
	OpNot:      {"not", ShapeRR},
	OpAllocR:   {"allocr", ShapeR},
	OpMul:      {"mul", ShapeRRR},
	OpLi:       {"li", ShapeRI},
	OpMov:      {"mov", ShapeRR},
	OpLde:      {"lde", ShapeRI},
	OpEnqFill:  {"enqfill", ShapeRR},
	OpEnqFillI: {"enqfilli", ShapeRI},
	OpEnqWb:    {"enqwb", ShapeRRI},
	OpEnqResp:  {"enqresp", ShapeRI},
	OpEnqEv:    {"enqev", ShapeI},
	OpPeek:     {"peek", ShapeRI},
	OpDeq:      {"deq", ShapeNone},
	OpAllocM:   {"allocm", ShapeNone},
	OpDeallocM: {"deallocm", ShapeNone},
	OpUpdate:   {"update", ShapeRR},
	OpState:    {"state", ShapeI},
	OpHalt:     {"halt", ShapeI},
	OpAbort:    {"abort", ShapeNone},
	OpBmiss:    {"bmiss", ShapeL},
	OpBhit:     {"bhit", ShapeL},
	OpBeq:      {"beq", ShapeRRL},
	OpBnz:      {"bnz", ShapeRL},
	OpBlt:      {"blt", ShapeRRL},
	OpBge:      {"bge", ShapeRRL},
	OpBle:      {"ble", ShapeRRL},
	OpJmp:      {"jmp", ShapeL},
	OpAllocD:   {"allocd", ShapeRR},
	OpAllocDI:  {"allocdi", ShapeRI},
	OpDeallocD: {"deallocd", ShapeNone},
	OpReadD:    {"readd", ShapeRR},
	OpWriteD:   {"writed", ShapeRR},
}

// Name returns the assembler mnemonic.
func (o Op) Name() string {
	if o < opMax && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", o)
}

// OpShape returns the operand shape for an op.
func (o Op) OpShape() Shape {
	if o < opMax {
		return opTable[o].shape
	}
	return ShapeNone
}

// IsTerminal reports whether the op legally ends a routine.
func (o Op) IsTerminal() bool {
	return o == OpState || o == OpHalt || o == OpAbort
}

// IsBranch reports whether the op's immediate is a routine-relative
// microcode target.
func (o Op) IsBranch() bool {
	switch o.OpShape() {
	case ShapeL, ShapeRL, ShapeRRL:
		return true
	}
	return false
}

// regFieldNames are the encoding-order register operand slot names.
var regFieldNames = [3]string{"dst", "a", "b"}

// RegFieldName names the k'th register operand slot as RegOperands orders
// them: "dst", "a", "b".
func RegFieldName(k int) string {
	if k >= 0 && k < len(regFieldNames) {
		return regFieldNames[k]
	}
	return "?"
}

// RegOperands returns the register fields the instruction's shape actually
// reads or writes, in encoding order (dst, a, b), and how many of them are
// meaningful. Fields beyond n carry don't-care bits from decode and must
// be ignored; the controller's bounds checks and the static verifier both
// consume this single source of truth for which operands matter.
func (i Instr) RegOperands() (regs [3]uint8, n int) {
	switch i.Op.OpShape() {
	case ShapeR, ShapeRI, ShapeRL:
		return [3]uint8{i.Dst}, 1
	case ShapeRR, ShapeRRI, ShapeRRL:
		return [3]uint8{i.Dst, i.A}, 2
	case ShapeRRR:
		return [3]uint8{i.Dst, i.A, i.B}, 3
	}
	return regs, 0
}

// Instr is one decoded microcode action. Branch immediates are
// routine-relative instruction indices.
type Instr struct {
	Op  Op
	Dst uint8 // first register operand (written for ALU ops)
	A   uint8 // second register operand
	B   uint8 // third register operand (RRR shape)
	Imm int32 // immediate / branch target, 16-bit signed range
}

// ImmMin and ImmMax bound the encodable immediate.
const (
	ImmMin = -32768
	ImmMax = 32767
)

// Valid reports whether o names a defined action (OpInvalid excluded).
func (o Op) Valid() bool {
	return o > OpInvalid && o < opMax && opTable[o].name != ""
}

// EncodeError reports why an instruction cannot be packed into a
// microcode word: an undefined op or an immediate outside the 16-bit
// signed field.
type EncodeError struct {
	Instr  Instr
	Reason string
}

// Error implements error.
func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: %s", e.Instr.Op.Name(), e.Reason)
}

// Encode packs the instruction into a 32-bit microcode word:
//
//	[31:26] op  [25:21] dst  [20:16] a  [15:0] imm (or b in [4:0] for RRR)
//
// It returns an *EncodeError for an undefined op or an immediate outside
// [ImmMin, ImmMax]; it never panics.
func (i Instr) Encode() (uint32, error) {
	if !i.Op.Valid() {
		return 0, &EncodeError{Instr: i, Reason: fmt.Sprintf("undefined op %d", i.Op)}
	}
	if i.Imm < ImmMin || i.Imm > ImmMax {
		return 0, &EncodeError{Instr: i, Reason: fmt.Sprintf("immediate %d out of range", i.Imm)}
	}
	w := uint32(i.Op)<<26 | uint32(i.Dst&0x1f)<<21 | uint32(i.A&0x1f)<<16
	if i.Op.OpShape() == ShapeRRR {
		w |= uint32(i.B & 0x1f)
	} else {
		w |= uint32(uint16(int16(i.Imm)))
	}
	return w, nil
}

// MustEncode is Encode for instructions known valid by construction
// (compiler-emitted code); it panics on the error path and is the only
// panic left in this package.
func (i Instr) MustEncode() uint32 {
	w, err := i.Encode()
	if err != nil {
		panic(err)
	}
	return w
}

// Decode unpacks a microcode word.
func Decode(w uint32) Instr {
	in := Instr{
		Op:  Op(w >> 26),
		Dst: uint8(w >> 21 & 0x1f),
		A:   uint8(w >> 16 & 0x1f),
	}
	if in.Op.OpShape() == ShapeRRR {
		in.B = uint8(w & 0x1f)
	} else {
		in.Imm = int32(int16(uint16(w & 0xffff)))
	}
	return in
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	switch i.Op.OpShape() {
	case ShapeNone:
		return i.Op.Name()
	case ShapeR:
		return fmt.Sprintf("%s r%d", i.Op.Name(), i.Dst)
	case ShapeRR:
		return fmt.Sprintf("%s r%d, r%d", i.Op.Name(), i.Dst, i.A)
	case ShapeRRR:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op.Name(), i.Dst, i.A, i.B)
	case ShapeRI:
		return fmt.Sprintf("%s r%d, %d", i.Op.Name(), i.Dst, i.Imm)
	case ShapeRRI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op.Name(), i.Dst, i.A, i.Imm)
	case ShapeI:
		return fmt.Sprintf("%s %d", i.Op.Name(), i.Imm)
	case ShapeL:
		return fmt.Sprintf("%s @%d", i.Op.Name(), i.Imm)
	case ShapeRL:
		return fmt.Sprintf("%s r%d, @%d", i.Op.Name(), i.Dst, i.Imm)
	case ShapeRRL:
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op.Name(), i.Dst, i.A, i.Imm)
	}
	return i.Op.Name()
}

// WordBytes is the size of one encoded microcode action, used by the
// energy model to charge routine-RAM fetches.
const WordBytes = 4
