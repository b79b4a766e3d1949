package vm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obl/ir"
)

// Register banks. Integer and boolean registers share the word bank.
const (
	BankInt = iota
	BankFloat
	BankRef
)

// ArgMove copies one value as part of a call, tail call, extern call, or
// parallel-section entry. Src is a bank-local slot in the caller's frame;
// Dst is the destination's meaning per opcode: the callee's bank-local
// parameter slot (OpCall/OpTailCall/OpCallEnter), the extern argument
// index (OpCallExt*), or the captured-argument index (OpParallel).
type ArgMove struct {
	Bank uint8
	Src  int32
	Dst  int32
}

// Instr is one bytecode instruction. Len is the number of original
// instructions it covers: 1 for plain instructions, more for fused
// superinstructions. Cost is the folded virtual cost of everything the
// instruction covers (zero for sync instructions, whose charges the
// runtime applies along its own paths). Dst and A–C are a plain
// instruction's operands (opRegs); D and E are further operands only the
// widest fused groups use. Where an instruction came from lives in
// FuncCode.Src, not here: only fault paths read it.
//
// The struct is exactly 64 bytes — one cache line — which the dispatch
// loop is sensitive to: float constants travel as bits in Imm (SetF/F)
// rather than a dedicated field, and Cost is an int32 (per-instruction
// folded costs are small; array-allocation per-element charges scale at
// run time).
type Instr struct {
	Op   Op
	Len  uint8
	Cost int32
	Dst  int32
	A, B int32
	C    int32
	D, E int32
	Imm  int64
	Args []ArgMove
}

// SrcPos locates an instruction in the source program: the function it
// came from and its pc there. After inline expansion the containing
// FuncCode is the caller, but faults must still report the function the
// instruction came from, exactly as the interpreter's frame would.
type SrcPos struct {
	Fn, PC int32
}

// F reads a float constant stored in Imm.
func (in *Instr) F() float64 { return math.Float64frombits(uint64(in.Imm)) }

// SetF stores a float constant into Imm.
func (in *Instr) SetF(f float64) { in.Imm = int64(math.Float64bits(f)) }

// FuncCode is one compiled function.
type FuncCode struct {
	Name string
	ID   int

	// Frame geometry. NInts/NFloats/NRefs are the bank sizes the original
	// registers occupy — the region zeroed on frame push. Int slot NInts is
	// the frame's collapse counter, which every push zeroes: the self tail
	// calls that reused the frame, whose returns the eventual OpRet*
	// replays. FrameInts etc. include it and the ranges appended by inline
	// expansion, which OpCallEnter zeroes lazily instead.
	NInts, NFloats, NRefs             int32
	FrameInts, FrameFloats, FrameRefs int32
	// ZeroInts/ZeroFloats/ZeroRefs say whether a fresh activation must
	// zero the bank's original region: true when some register of the bank
	// can be read before it is written (see needsZeroing). Most compiled
	// functions initialize every local, and their frames are opened over
	// whatever the arena last held.
	ZeroInts, ZeroFloats, ZeroRefs bool
	// PInts/PFloats/PRefs bound the parameter region of each bank:
	// parameters are the first registers, so their slots are each bank's
	// prefix. A tail call re-zeroes only the suffixes.
	PInts, PFloats, PRefs int32

	// RegBank/RegSlot map original ir registers to (bank, slot). Parameter
	// registers are 0..NParams-1 as in the IR.
	NParams int
	RegBank []uint8
	RegSlot []int32

	// Code is the executable stream: Plain with the head slot of every
	// superinstruction group replaced by the fused instruction. Plain holds
	// the unfused instruction for every slot of the same stream: jump
	// targets that land inside a fused group execute the plain slots, and
	// the dispatch loop falls back to a group's plain head when the step
	// budget cannot admit the whole group.
	Code  []Instr
	Plain []Instr
	// Src locates every slot's Plain instruction in the source program; a
	// fused group's faults come from its head slot or its plain slots.
	Src []SrcPos
	// Descents holds the register plan of every OpDescend head, in pc
	// order; a head's D indexes it.
	Descents []Descent
	// Linear is the function's linear-recursion plan, nil for a function
	// without one; every call of a planned function is an OpCallLinear.
	Linear *Linear
}

// Module is a compiled program.
type Module struct {
	Prog  *ir.Program
	Funcs []*FuncCode
	// Ext[i] is the host implementation of Prog.Externs[i] (Intrinsics),
	// the zero Intrinsic for a name that has none.
	Ext []Intrinsic
}

// bankOf maps a register kind to its bank.
func bankOf(k ir.ElemKind) uint8 {
	switch k {
	case ir.ElemFloat:
		return BankFloat
	case ir.ElemRef:
		return BankRef
	default: // int and bool share the word bank
		return BankInt
	}
}

// Disasm renders a compiled function for debugging and tests.
func (fc *FuncCode) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d ints=%d floats=%d refs=%d frame=%d/%d/%d)\n",
		fc.Name, fc.NParams, fc.NInts, fc.NFloats, fc.NRefs,
		fc.FrameInts, fc.FrameFloats, fc.FrameRefs)
	for pc := range fc.Code {
		in := &fc.Code[pc]
		if in.Op == OpConstF {
			fmt.Fprintf(&b, "  %4d: %-12s dst=%d f=%g", pc, in.Op, in.Dst, in.F())
		} else {
			fmt.Fprintf(&b, "  %4d: %-12s dst=%d a=%d b=%d c=%d imm=%d", pc, in.Op, in.Dst, in.A, in.B, in.C, in.Imm)
		}
		if in.D != 0 || in.E != 0 {
			fmt.Fprintf(&b, " d=%d e=%d", in.D, in.E)
		}
		if in.Len > 1 {
			fmt.Fprintf(&b, " len=%d", in.Len)
		}
		if in.Cost != 0 {
			fmt.Fprintf(&b, " cost=%d", in.Cost)
		}
		for _, m := range in.Args {
			fmt.Fprintf(&b, " [b%d %d->%d]", m.Bank, m.Src, m.Dst)
		}
		b.WriteString("\n")
	}
	return b.String()
}
