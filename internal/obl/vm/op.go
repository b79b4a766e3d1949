// Package vm compiles the register IR (internal/obl/ir) to a typed,
// flat register bytecode, specialized statically: a program has one
// module, built by Compile.
//
// The interpreter (internal/interp) executes ir.Instr directly: every
// operand is a 32-byte tagged Value, every instruction cost is fetched
// from a side table, and generic opcodes re-discover operand kinds on
// each execution. The bytecode eliminates all of that at compile time:
//
//   - The register file is split into three typed banks (int64 words —
//     which also hold booleans — float64s, and object references), so
//     the hot loop moves 8-byte scalars instead of tagged values and
//     frame zeroing clears half the bytes.
//   - Opcodes are kind-specialized (OpEqF vs OpEqI vs OpEqR, typed field
//     and element accesses, typed prints), so no Value tags are consulted.
//   - Every instruction carries its folded virtual cost (extern calls
//     include the extern's declared cost), call sites carry resolved
//     argument-move plans, and self tail calls reuse the frame through a
//     move plan sequenced here into plain in-order copies.
//   - Each function records which register banks a fresh frame must zero
//     (FuncCode.ZeroInts etc.): only those in which a register can be
//     read before it is written, which lowered code never does.
//
// Two further compile passes (specialize.go) then rewrite the translated
// code wherever their patterns match: inline expansion of small leaf
// callees, and superinstructions for compare+branch, constant-operand
// (const.i K folded into the integer op or compare+branch that consumes
// it) and loop-increment sequences.
//
// The contract with the execution engine (interp's vm task) is strict
// bit-for-bit equivalence with the interpreter: identical virtual times,
// counters, scheduler step counts, outputs, controller decisions, and
// race-detector findings. Specialized instructions therefore perform
// exactly the effects of the instructions they cover — including dead
// register writes — and fused instructions only execute when the step
// budget admits the whole group (the per-slot plain overlay runs
// otherwise), so dispatch boundaries never move.
package vm

// Op is a bytecode opcode. Kind-specialized where the IR is generic.
type Op uint8

// Plain opcodes: the 1:1 translation targets of ir.Op.
const (
	OpNop Op = iota

	// Constants and moves. OpConstI covers integer and boolean constants
	// (booleans are stored as 0/1 words).
	OpConstI   // ints[Dst] = Imm
	OpConstF   // floats[Dst] = F
	OpConstNil // refs[Dst] = nil
	OpMovI     // ints[Dst] = ints[A]
	OpMovF     // floats[Dst] = floats[A]
	OpMovR     // refs[Dst] = refs[A]
	OpLoadParam

	// Arithmetic.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF
	OpI2F
	OpF2I

	// Comparisons (result is a 0/1 word in ints[Dst]).
	OpEqI
	OpNeI
	OpEqF
	OpNeF
	OpEqR
	OpNeR
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpNot

	// Control flow.
	OpJump    // pc = Imm
	OpBrFalse // if ints[A] == 0: pc = Imm

	// Calls. Imm is the callee (module function index); Args is the
	// argument-move plan; Dst is the caller's bank-local result slot
	// (-1 none) and C its bank.
	OpCall
	OpCallExtI // ints[Dst] = extern(...).I
	OpCallExtF // floats[Dst] = extern(...).F
	OpRetI     // return ints[A]
	OpRetF
	OpRetR
	OpRetVoid

	// Objects and arrays.
	OpNew         // refs[Dst] = new Classes[Imm]
	OpNewArr      // refs[Dst] = new array[ints[A]] of element kind Imm
	OpLoadFieldI  // ints[Dst] = refs[A].Fields[Imm].I  (int and bool fields)
	OpLoadFieldF  // floats[Dst] = refs[A].Fields[Imm].F
	OpLoadFieldR  // refs[Dst] = refs[A].Fields[Imm].Ref
	OpStoreFieldI // refs[A].Fields[Imm] = int word ints[B]
	OpStoreFieldB // refs[A].Fields[Imm] = bool word ints[B]
	OpStoreFieldF
	OpStoreFieldR
	OpLoadIndexI // ints[Dst] = refs[A].Elems[ints[B]].I
	OpLoadIndexF
	OpLoadIndexR
	OpStoreIndexI // refs[A].Elems[ints[B]] = int word ints[C]
	OpStoreIndexB
	OpStoreIndexF
	OpStoreIndexR
	OpLen

	// Output, typed by the printed register's kind.
	OpPrintI
	OpPrintB
	OpPrintF
	OpPrintR

	// Specialized instructions (emitted by compile-time resolution, inline
	// expansion and fusion).

	// OpFlagSkip replaces a conditional sync site that every policy's
	// flag vector disables: only the residual flag test is charged.
	OpFlagSkip

	// OpTailCall is a self-recursive call in tail position: the frame is
	// reused (Args is a sequenced move plan, run as in-order copies within
	// the frame; locals are re-zeroed only if the function needs zeroed
	// registers) and a collapse counter is incremented so the eventual
	// OpRet replays the intermediate returns' charges one instruction at
	// a time — dispatch boundaries land exactly where the interpreter's
	// unwind puts them.
	OpTailCall

	// Inline expansion. OpCallEnter opens an inlined callee: it charges
	// the call linkage cost and zeroes the callee's register ranges
	// (A..B ints, C..Dst floats, Imm packs the ref range; empty for a bank
	// the callee needs no zeroing of) before the argument moves. OpIRet*
	// are the callee's returns: they write the caller's result slot (Dst;
	// bank implied) and jump to the splice end.
	OpCallEnter
	OpIRetI // caller slot Dst = ints[A]; pc = Imm
	OpIRetF
	OpIRetR
	OpIRetVoid // zero caller slot Dst in bank B; pc = Imm

	// Fused superinstructions (Len > 1): compare+branch pairs write the
	// condition register and branch in one dispatch, and OpInc1Jump is
	// the three-instruction serial-loop latch (const 1, add, jump back).
	OpEqIBr
	OpNeIBr
	OpEqFBr
	OpNeFBr
	OpEqRBr
	OpNeRBr
	OpLtIBr
	OpLeIBr
	OpGtIBr
	OpGeIBr
	OpLtFBr
	OpLeFBr
	OpGtFBr
	OpGeFBr
	OpNotBr
	OpInc1Jump // ints[Dst] = 1; ints[A] += 1; pc = Imm

	// Immediate-operand groups: a const.i K feeding the integer op that
	// consumes it as its B operand. The dead constant write is kept
	// (ints[B] = Imm) so the register file matches the unfused stream.
	// Arithmetic groups are Len 2; OpDivIK/OpModIK are only emitted for
	// K != 0, so the plain instruction reports a zero divisor.
	OpAddIK // ints[B] = Imm; ints[Dst] = ints[A] + Imm
	OpSubIK
	OpMulIK
	OpDivIK
	OpModIK
	// Compare-immediate-and-branch groups are Len 3 (const, compare,
	// brfalse): ints[B] = Imm; ints[Dst] = ints[A] <op> Imm; if false pc = C.
	OpEqIKBr
	OpNeIKBr
	OpLtIKBr
	OpLeIKBr
	OpGtIKBr
	OpGeIKBr

	// Synchronization and section entry. These are kept in one contiguous
	// range so the dispatch loop recognizes the yield-first instructions
	// with a single compare (see opSyncStart).
	OpAcquire   // acquire refs[A].lock
	OpRelease   // release refs[A].lock
	OpAcquireEn // conditional site every flag vector enables: no lookup
	OpReleaseEn
	OpAcquireIf // conditional site, flag vector consulted at run time
	OpReleaseIf
	OpParallel // enter Sections[Imm] over [ints[A], ints[B]) with Args

	opCount
)

// OpSyncStart is the first yield-first opcode: every opcode from here on
// interacts with shared machine state and must execute at the start of
// its own scheduler dispatch.
const OpSyncStart = OpAcquire

var opNames = [...]string{
	OpNop: "nop", OpConstI: "const.i", OpConstF: "const.f", OpConstNil: "const.nil",
	OpMovI: "mov.i", OpMovF: "mov.f", OpMovR: "mov.r", OpLoadParam: "loadparam",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i",
	OpModI: "mod.i", OpNegI: "neg.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpNegF: "neg.f", OpI2F: "i2f", OpF2I: "f2i",
	OpEqI: "eq.i", OpNeI: "ne.i", OpEqF: "eq.f", OpNeF: "ne.f",
	OpEqR: "eq.r", OpNeR: "ne.r",
	OpLtI: "lt.i", OpLeI: "le.i", OpGtI: "gt.i", OpGeI: "ge.i",
	OpLtF: "lt.f", OpLeF: "le.f", OpGtF: "gt.f", OpGeF: "ge.f",
	OpNot:  "not",
	OpJump: "jump", OpBrFalse: "brfalse",
	OpCall: "call", OpCallExtI: "callext.i", OpCallExtF: "callext.f",
	OpRetI: "ret.i", OpRetF: "ret.f", OpRetR: "ret.r", OpRetVoid: "ret",
	OpNew: "new", OpNewArr: "newarr",
	OpLoadFieldI: "ldfld.i", OpLoadFieldF: "ldfld.f", OpLoadFieldR: "ldfld.r",
	OpStoreFieldI: "stfld.i", OpStoreFieldB: "stfld.b", OpStoreFieldF: "stfld.f",
	OpStoreFieldR: "stfld.r",
	OpLoadIndexI:  "ldidx.i", OpLoadIndexF: "ldidx.f", OpLoadIndexR: "ldidx.r",
	OpStoreIndexI: "stidx.i", OpStoreIndexB: "stidx.b", OpStoreIndexF: "stidx.f",
	OpStoreIndexR: "stidx.r", OpLen: "len",
	OpPrintI: "print.i", OpPrintB: "print.b", OpPrintF: "print.f", OpPrintR: "print.r",
	OpFlagSkip: "flagskip", OpTailCall: "tailcall",
	OpCallEnter: "callenter",
	OpIRetI:     "iret.i", OpIRetF: "iret.f", OpIRetR: "iret.r", OpIRetVoid: "iret",
	OpEqIBr: "eq.i+br", OpNeIBr: "ne.i+br", OpEqFBr: "eq.f+br", OpNeFBr: "ne.f+br",
	OpEqRBr: "eq.r+br", OpNeRBr: "ne.r+br",
	OpLtIBr: "lt.i+br", OpLeIBr: "le.i+br", OpGtIBr: "gt.i+br", OpGeIBr: "ge.i+br",
	OpLtFBr: "lt.f+br", OpLeFBr: "le.f+br", OpGtFBr: "gt.f+br", OpGeFBr: "ge.f+br",
	OpNotBr: "not+br", OpInc1Jump: "inc1+jump",
	OpAddIK: "add.ik", OpSubIK: "sub.ik", OpMulIK: "mul.ik", OpDivIK: "div.ik", OpModIK: "mod.ik",
	OpEqIKBr: "eq.ik+br", OpNeIKBr: "ne.ik+br",
	OpLtIKBr: "lt.ik+br", OpLeIKBr: "le.ik+br", OpGtIKBr: "gt.ik+br", OpGeIKBr: "ge.ik+br",
	OpAcquire: "acquire", OpRelease: "release",
	OpAcquireEn: "acquire.en", OpReleaseEn: "release.en",
	OpAcquireIf: "acquire.if", OpReleaseIf: "release.if",
	OpParallel: "parallel",
}

// Operand banks of an opcode's register fields: bank+1, with 0 for a field
// that is not a register slot (immediates, jump targets, site indices).
const (
	xI = BankInt + 1
	xF = BankFloat + 1
	xR = BankRef + 1
)

// opRegs says which fields of a plain instruction are register slots and
// in which bank: Dst is written, A/B/C are read. It is what inline
// expansion rebases and what the liveness pass walks. Call-like opcodes
// carry further operands in Args (and OpCall's Dst bank is in C); fused
// and inline-expansion opcodes never occur in the plain baseline stream
// the table is applied to.
var opRegs = [opCount]struct{ dst, a, b, c uint8 }{
	OpConstI: {dst: xI}, OpLoadParam: {dst: xI}, OpConstF: {dst: xF}, OpConstNil: {dst: xR},
	OpMovI: {xI, xI, 0, 0}, OpNegI: {xI, xI, 0, 0}, OpNot: {xI, xI, 0, 0},
	OpMovF: {xF, xF, 0, 0}, OpNegF: {xF, xF, 0, 0}, OpMovR: {xR, xR, 0, 0},
	OpAddI: {xI, xI, xI, 0}, OpSubI: {xI, xI, xI, 0}, OpMulI: {xI, xI, xI, 0},
	OpDivI: {xI, xI, xI, 0}, OpModI: {xI, xI, xI, 0},
	OpEqI: {xI, xI, xI, 0}, OpNeI: {xI, xI, xI, 0},
	OpLtI: {xI, xI, xI, 0}, OpLeI: {xI, xI, xI, 0}, OpGtI: {xI, xI, xI, 0}, OpGeI: {xI, xI, xI, 0},
	OpAddF: {xF, xF, xF, 0}, OpSubF: {xF, xF, xF, 0}, OpMulF: {xF, xF, xF, 0}, OpDivF: {xF, xF, xF, 0},
	OpEqF: {xI, xF, xF, 0}, OpNeF: {xI, xF, xF, 0},
	OpLtF: {xI, xF, xF, 0}, OpLeF: {xI, xF, xF, 0}, OpGtF: {xI, xF, xF, 0}, OpGeF: {xI, xF, xF, 0},
	OpEqR: {xI, xR, xR, 0}, OpNeR: {xI, xR, xR, 0},
	OpI2F: {xF, xI, 0, 0}, OpF2I: {xI, xF, 0, 0},
	OpBrFalse:  {a: xI},
	OpCallExtI: {dst: xI}, OpCallExtF: {dst: xF},
	OpRetI: {a: xI}, OpRetF: {a: xF}, OpRetR: {a: xR},
	OpNew: {dst: xR}, OpNewArr: {xR, xI, 0, 0},
	OpLoadFieldI: {xI, xR, 0, 0}, OpLoadFieldF: {xF, xR, 0, 0}, OpLoadFieldR: {xR, xR, 0, 0},
	OpStoreFieldI: {0, xR, xI, 0}, OpStoreFieldB: {0, xR, xI, 0},
	OpStoreFieldF: {0, xR, xF, 0}, OpStoreFieldR: {0, xR, xR, 0},
	OpLoadIndexI: {xI, xR, xI, 0}, OpLoadIndexF: {xF, xR, xI, 0}, OpLoadIndexR: {xR, xR, xI, 0},
	OpStoreIndexI: {0, xR, xI, xI}, OpStoreIndexB: {0, xR, xI, xI},
	OpStoreIndexF: {0, xR, xI, xF}, OpStoreIndexR: {0, xR, xI, xR},
	OpLen:    {xI, xR, 0, 0},
	OpPrintI: {a: xI}, OpPrintB: {a: xI}, OpPrintF: {a: xF}, OpPrintR: {a: xR},
	OpAcquire: {a: xR}, OpRelease: {a: xR}, OpAcquireEn: {a: xR}, OpReleaseEn: {a: xR},
	OpAcquireIf: {a: xR}, OpReleaseIf: {a: xR},
	OpParallel: {a: xI, b: xI},
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "Op?" // unreachable for valid opcodes
}
