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
//   - Every extern call passes its operands unboxed: no []Value is
//     built. Compile admits only the typed forms with an unboxed opcode
//     (ExternForm.Unboxed); a program that declares an extern of another
//     form is an oracle run (internal/interp's OracleReason).
//   - Each function records which register banks a fresh frame must zero
//     (FuncCode.ZeroInts etc.): only those in which a register can be
//     read before it is written, which lowered code never does.
//
// Two further compile passes (specialize.go) then rewrite the translated
// code wherever their patterns match: inline expansion of small leaf
// callees, self-tail-recursive ones included, and superinstructions. The
// superinstruction set is the one the dispatch census of the benchmark
// workloads dispatches (internal/interp's census build): lt.i+br, the
// serial-loop latch, const.i K folded into add and mul and into
// le.i+brfalse, const.f K folded into mul.f, loadparam feeding work,
// and the longer census groups. A group no census section runs is
// deleted, and the census test fails if one is added. A function that is
// one level of a binary descent closed by a self tail call gets the loop
// superinstruction OpDescend at its head, and so does every splice of it,
// and a register plan (Descent), with which the engine runs whole levels
// of those groups in one dispatch, lo, hi and k in host registers. A
// function that is a linear non-tail recursion whose pending value and
// base value do not depend on its counter (Water's energy) gets a
// linear-recursion plan (Linear, linear.go), and every call of it becomes
// OpCallLinear, which runs the whole recursion in one dispatch without a
// frame when the budget and the call-depth check admit all of it: the
// frames it skips are popped before anything reads them, so only the
// caller's result slot is written.
//
// The contract with the execution engine (interp's vm task) is strict
// bit-for-bit equivalence with the interpreter: identical virtual times,
// counters, scheduler step counts, outputs and controller decisions.
// Specialized instructions therefore perform exactly the effects of the
// instructions they cover — including dead register writes — and fused
// instructions only execute when the step budget admits the whole group
// (the per-slot plain overlay runs otherwise), so dispatch boundaries
// never move. OpDescend keeps the same rule level by level: it runs a
// level in registers only when the budget admits all of its groups whole,
// and otherwise leaves the level to them. Race-detector findings are not
// part of the contract: a race-detecting run is an oracle run, so neither
// a group nor OpDescend owes the detector an order of accesses. Nor is
// flag dispatch (§4.2): the VM's sync opcodes are the unconditional
// acquire and release, Compile rejects a conditional sync site, and Run
// hands such programs to the oracle.
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
	// Extern calls, one per ExternForm the census workloads call: Imm is
	// the extern, the arguments are A and B, and no []Value is built.
	OpCallFFF  // floats[Dst] = extern(floats[A], floats[B])
	OpCallIF   // floats[Dst] = extern(ints[A])
	OpCallWork // ints[Dst] = 0; charge ints[A] virtual ns, floored at zero (work)
	// Returns. ints[C] is the frame's collapse counter: the returns of the
	// self tail calls that reused the frame are replayed first (OpTailCall).
	OpRetI // return ints[A]
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

	// OpTailCall is a self-recursive call in tail position: the frame is
	// reused (Args is a sequenced move plan, run as in-order copies within
	// the frame) and the collapse counter ints[D] is incremented so the
	// eventual return (OpRet*, OpIRetN) replays the intermediate returns'
	// charges, each one instruction of the step budget — dispatch
	// boundaries land exactly where the interpreter's unwind puts them.
	// The call restarts at pc E: pc 0 of a frame, whose locals are
	// re-zeroed only if the function needs zeroed registers, or the body
	// head of a splice, whose callee zeroes nothing.
	OpTailCall

	// Inline expansion. OpCallEnter opens an inlined callee: it charges
	// the call linkage cost and zeroes the callee's register ranges
	// (A..B ints, C..Dst floats, Imm packs the ref range; empty for a bank
	// the callee needs no zeroing of) before the argument moves. D is 1
	// when the callee is self-tail-recursive: the splice then stands for a
	// frame the call-depth checks count, and its int range is the splice's
	// collapse counter (such a callee zeroes nothing). OpIRetF and
	// OpIRetVoid are the returns of a callee that is not: they write the
	// caller's result slot (Dst; bank implied) and jump to the splice end.
	// A callee that returns an int or a ref is not spliced (inlinable): no
	// census section runs one.
	OpCallEnter
	// OpIRetN is a self-tail-recursive callee's return: ints[C] counts the
	// tail calls the splice collapsed, and their returns are replayed as
	// one budget step each, by OpRet*'s code; then caller slot
	// Dst (-1 none) of bank B = the value in slot A of bank B (A -1: a void
	// return, the bank's zero); pc = Imm.
	OpIRetN
	OpIRetF    // caller slot Dst = floats[A]; pc = Imm
	OpIRetVoid // zero caller slot Dst in bank B; pc = Imm

	// Fused superinstructions (Len > 1): only the groups the dispatch
	// census of the benchmark workloads dispatches (fuseAt). OpLtIBr is
	// lt.i and the brfalse on its result: ints[Dst] = ints[A] < ints[B];
	// if false pc = Imm. OpInc1Jump is the three-instruction serial-loop
	// latch (const 1, add, jump back).
	OpLtIBr
	OpInc1Jump // ints[Dst] = 1; ints[A] += 1; pc = Imm

	// Immediate-operand groups: a const.i K feeding the integer op that
	// consumes it as its B operand. The dead constant write is kept
	// (ints[B] = Imm) so the register file matches the unfused stream.
	// Arithmetic groups are Len 2.
	OpAddIK // ints[B] = Imm; ints[Dst] = ints[A] + Imm
	OpMulIK
	// OpMulFK is a const.f K feeding mul.f as its B operand (Len 2), K's
	// bits in Imm as OpConstF carries them: floats[B] = K; floats[Dst] =
	// floats[A] * K, in the operands' order. (A const.f feeding add.f is
	// fused only inside OpAddFieldFK: no census section runs one outside.)
	OpMulFK
	// OpLeIKBr is Len 3 (const, le.i, brfalse): ints[B] = Imm; ints[Dst] =
	// ints[A] <= Imm; if false pc = C.
	OpLeIKBr

	// Census groups: the sequences the census found hottest, each one
	// dispatch in place of three to five (see censusGroup). Operands D and
	// E carry what the narrower groups lack room for; every write of the
	// covered slots is kept.
	//
	// OpAddDivIKMov is add.i, div.i of its result by a const.i K, mov.i
	// of the quotient: ints[Dst] = ints[A] + ints[B]; ints[C] = Imm;
	// ints[D] = ints[Dst] / Imm; ints[E] = ints[D] (Len 4, Imm != 0).
	OpAddDivIKMov
	// OpModIKEqIKBr is mod.i by a const.i K1 feeding eq.i with a const.i
	// K2 and its brfalse, the parity test of a binary descent (Len 5). Imm
	// packs both constants as int32 halves, K1<<32 | K2: ints[E] = K1;
	// ints[A] = ints[D] % K1; ints[B] = K2; ints[Dst] = ints[A] == K2; if
	// false pc = C (K1 != 0).
	OpModIKEqIKBr
	// OpIKTailCall is a const.i K feeding add/sub/mul/div/mod (the plain
	// arithmetic opcode in C) followed by a self tail call: ints[B] = Imm;
	// ints[Dst] = ints[A] <op> Imm; then OpTailCall with Args, D and E
	// (Len 3; Imm != 0 for div and mod).
	OpIKTailCall
	// OpAddFieldF is a float field read-modify-write on one object and
	// field: floats[D] = refs[A].Fields[Imm].F; floats[Dst] = floats[B] +
	// floats[C]; refs[A].Fields[Imm] = floats[Dst] (Len 3).
	OpAddFieldF
	// OpAddFieldFK is OpAddFieldF with a const.f K as the add's B operand:
	// ldfld.f, const.f, add.f, stfld.f on one object and field (Len 4).
	// The field is E, since K takes Imm: floats[D] = refs[A].Fields[E].F;
	// floats[C] = K; floats[Dst] = floats[B] + K; refs[A].Fields[E] =
	// floats[Dst].
	OpAddFieldFK

	// OpDescend is the loop superinstruction of a binary descent: the
	// head of a function (pc 0) or of a self-tail-recursive splice (its
	// body's first slot) whose slots sub.i, const.i K, le.i, brfalse test
	// hi - lo <= K and, when the branch is not taken, lead through
	// OpAddDivIKMov, OpModIKEqIKBr and one of two OpIKTailCall div arms
	// back to the head, every divisor a power of two, with the dataflow
	// FuncCode.Descents[D] records (descentPlan). Its Len is 4, it carries
	// the head's fields (ints[A] = hi - lo, then those of OpLeIKBr), and
	// the slots after it stay plain; the other groups keep their own
	// slots. The handler runs whole levels with lo, hi and k in host
	// registers, as many as the budget admits whole and the call-depth
	// check admits, writes the bank back once, and then runs the head
	// itself on the final lo and hi: a level the budget cannot admit whole
	// runs as the ordinary groups.
	OpDescend
	// OpEnterDescend is a self-tail-recursive splice's OpCallEnter and the
	// OpDescend head of its body as one group (Len 5): the fields are the
	// head's, Args is the entry's, and the one register the entry zeroes
	// is the plan's collapse counter.
	OpEnterDescend
	// OpWorkParam is loadparam feeding work: ints[Dst] = Params[Imm],
	// ints[B] = 0, and Params[Imm] charged as OpCallWork charges it (Len 2).
	OpWorkParam
	// OpCallLinear is an OpCall of a function with a linear-recursion plan
	// (FuncCode.Linear), with OpCall's operands. When the step budget
	// admits the whole recursion and the call-depth check admits every
	// frame of it, the engine runs it in this one dispatch: each arm's pure
	// externs once, the pending additions in the code's order, and the
	// charges of every level. Otherwise it is OpCall.
	OpCallLinear

	// Synchronization and section entry. These are kept in one contiguous
	// range so the dispatch loop recognizes the yield-first instructions
	// with a single compare (see opSyncStart).
	OpAcquire  // acquire refs[A].lock
	OpRelease  // release refs[A].lock
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
	OpCall: "call", OpCallFFF: "callext.fff", OpCallIF: "callext.if", OpCallWork: "callext.work",
	OpRetI: "ret.i", OpRetF: "ret.f", OpRetR: "ret.r", OpRetVoid: "ret",
	OpNew: "new", OpNewArr: "newarr",
	OpLoadFieldI: "ldfld.i", OpLoadFieldF: "ldfld.f", OpLoadFieldR: "ldfld.r",
	OpStoreFieldI: "stfld.i", OpStoreFieldB: "stfld.b", OpStoreFieldF: "stfld.f",
	OpStoreFieldR: "stfld.r",
	OpLoadIndexI:  "ldidx.i", OpLoadIndexF: "ldidx.f", OpLoadIndexR: "ldidx.r",
	OpStoreIndexI: "stidx.i", OpStoreIndexB: "stidx.b", OpStoreIndexF: "stidx.f",
	OpStoreIndexR: "stidx.r", OpLen: "len",
	OpPrintI: "print.i", OpPrintB: "print.b", OpPrintF: "print.f", OpPrintR: "print.r",
	OpTailCall:  "tailcall",
	OpCallEnter: "callenter", OpIRetN: "iret.n",
	OpIRetF: "iret.f", OpIRetVoid: "iret",
	OpLtIBr: "lt.i+br", OpInc1Jump: "inc1+jump",
	OpAddIK: "add.ik", OpMulIK: "mul.ik", OpLeIKBr: "le.ik+br", OpMulFK: "mul.fk",
	OpAddDivIKMov: "add.i+div.ik+mov.i", OpModIKEqIKBr: "mod.ik+eq.ik+br",
	OpIKTailCall: "arith.ik+tailcall", OpAddFieldF: "ldfld.f+add.f+stfld.f",
	OpAddFieldFK: "ldfld.f+add.fk+stfld.f", OpDescend: "descend",
	OpEnterDescend: "callenter+descend", OpWorkParam: "loadparam+work", OpCallLinear: "call.linear",
	OpAcquire: "acquire", OpRelease: "release", OpParallel: "parallel",
}

// Operand banks of an opcode's register fields: bank+1, with 0 for a field
// that is not a register slot (immediates, jump targets, section indices).
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
	OpBrFalse: {a: xI},
	OpCallFFF: {xF, xF, xF, 0}, OpCallIF: {xF, xI, 0, 0}, OpCallWork: {xI, xI, 0, 0},
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
	OpAcquire: {a: xR}, OpRelease: {a: xR},
	OpParallel: {a: xI, b: xI},
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "Op?" // unreachable for valid opcodes
}
