package vm

import (
	"fmt"

	"repro/internal/obl/ir"
)

// Compile builds the one module a program ever has: frame layout, the 1:1
// translation, tail-call marking, the frame-zeroing decision, inline
// expansion, superinstruction fusion and the linear-recursion plans, every
// pass a function of the program alone. A call to an extern whose host
// implementation (Intrinsics) has an unboxed opcode compiles to that
// opcode when its operands have the form's kinds. It returns an error
// when a function lacks the register-kind metadata lowering records
// (hand-built programs), when the metadata is inconsistent with how the
// code uses registers, and for a conditional sync site (ir.OpAcquireIf,
// ir.OpReleaseIf): flag dispatch runs only on the reference oracle.
// Compilation never changes observable behaviour: every returned module
// executes bit-identically to the interpreter.
func Compile(p *ir.Program) (*Module, error) {
	m := &Module{Prog: p, Funcs: make([]*FuncCode, len(p.Funcs)), Ext: make([]Intrinsic, len(p.Externs))}
	for i, e := range p.Externs {
		m.Ext[i] = Intrinsics[e.Name]
	}
	// Frame geometry first: call translation needs every callee's
	// parameter slots regardless of definition order.
	for id, f := range p.Funcs {
		fc, err := layout(f, id)
		if err != nil {
			return nil, err
		}
		m.Funcs[id] = fc
	}
	for id, f := range p.Funcs {
		if err := m.translate(f, m.Funcs[id]); err != nil {
			return nil, err
		}
	}
	if p.Funcs[p.MainID].NParams != 0 {
		m.Funcs[p.MainID].zeroAll() // main is entered with no arguments
	}
	var scratch []uint64
	for _, fc := range m.Funcs {
		markTailCalls(fc)
		scratch = fc.markZeroing(scratch)
	}
	for _, fc := range m.Funcs {
		m.inlineExpand(fc)
		fc.fuse()
	}
	m.markLinearCalls()
	return m, nil
}

// zeroAll keeps full frame zeroing for a function some activation site
// enters without writing every parameter slot: its parameters then read
// as zero, exactly as the interpreter's fresh frame makes them.
func (fc *FuncCode) zeroAll() { fc.ZeroInts, fc.ZeroFloats, fc.ZeroRefs = true, true, true }

// layout assigns each register a (bank, slot) in register order, so
// parameters — the first NParams registers — occupy each bank's prefix.
func layout(f *ir.Func, id int) (*FuncCode, error) {
	if f.RegKinds == nil {
		return nil, fmt.Errorf("vm: %s: no register kinds", f.Name)
	}
	fc := &FuncCode{
		Name: f.Name, ID: id, NParams: f.NParams,
		RegBank: make([]uint8, f.NRegs),
		RegSlot: make([]int32, f.NRegs),
	}
	var counts [3]int32
	for r, k := range f.RegKinds {
		b := bankOf(k)
		fc.RegBank[r] = b
		fc.RegSlot[r] = counts[b]
		counts[b]++
		if r == f.NParams-1 {
			fc.PInts, fc.PFloats, fc.PRefs = counts[0], counts[1], counts[2]
		}
	}
	fc.NInts, fc.NFloats, fc.NRefs = counts[0], counts[1], counts[2]
	// The int slot after the registers is the frame's collapse counter.
	fc.FrameInts, fc.FrameFloats, fc.FrameRefs = counts[0]+1, counts[1], counts[2]
	return fc, nil
}

// binaryOps maps the IR's kind-specific binary opcodes to their bytecode
// counterparts.
var binaryOps = map[ir.Op]Op{
	ir.OpAddI: OpAddI, ir.OpSubI: OpSubI, ir.OpMulI: OpMulI, ir.OpDivI: OpDivI, ir.OpModI: OpModI,
	ir.OpAddF: OpAddF, ir.OpSubF: OpSubF, ir.OpMulF: OpMulF, ir.OpDivF: OpDivF,
	ir.OpLtI: OpLtI, ir.OpLeI: OpLeI, ir.OpGtI: OpGtI, ir.OpGeI: OpGeI,
	ir.OpLtF: OpLtF, ir.OpLeF: OpLeF, ir.OpGtF: OpGtF, ir.OpGeF: OpGeF,
}

// translate compiles one function body 1:1 (bytecode pcs equal IR pcs
// until inline expansion splices callees in).
func (m *Module) translate(f *ir.Func, fc *FuncCode) error {
	p := m.Prog
	kind := func(r ir.Reg) ir.ElemKind { return f.RegKinds[r] }
	slot := func(r ir.Reg) int32 { return fc.RegSlot[r] }
	errf := func(pc int, format string, args ...any) error {
		return fmt.Errorf("vm: %s: pc %d: %s", f.Name, pc, fmt.Sprintf(format, args...))
	}
	// want checks that a register has the expected static kind; a mismatch
	// means the kind metadata cannot be trusted for this function.
	want := func(pc int, r ir.Reg, k ir.ElemKind) error {
		if kind(r) != k {
			return errf(pc, "register r%d has kind %d, want %d", r, kind(r), k)
		}
		return nil
	}
	wantWord := func(pc int, r ir.Reg) error {
		if b := fc.RegBank[r]; b != BankInt {
			return errf(pc, "register r%d in bank %d, want word bank", r, b)
		}
		return nil
	}

	out := make([]Instr, len(f.Code))
	fc.Src = make([]SrcPos, len(f.Code))
	for pc, in := range f.Code {
		o := &out[pc]
		o.Len = 1
		fc.Src[pc] = SrcPos{Fn: int32(fc.ID), PC: int32(pc)}
		o.Cost = int32(in.Cost())
		switch in.Op {
		case ir.OpNop:
			o.Op = OpNop

		case ir.OpConstInt:
			o.Op, o.Dst, o.Imm = OpConstI, slot(in.Dst), in.Imm
			if err := want(pc, in.Dst, ir.ElemInt); err != nil {
				return err
			}
		case ir.OpConstBool:
			o.Op, o.Dst = OpConstI, slot(in.Dst)
			if in.Imm != 0 {
				o.Imm = 1
			}
			if err := want(pc, in.Dst, ir.ElemBool); err != nil {
				return err
			}
		case ir.OpConstFloat:
			o.Op, o.Dst = OpConstF, slot(in.Dst)
			o.SetF(in.F)
			if err := want(pc, in.Dst, ir.ElemFloat); err != nil {
				return err
			}
		case ir.OpConstNil:
			o.Op, o.Dst = OpConstNil, slot(in.Dst)
			if err := want(pc, in.Dst, ir.ElemRef); err != nil {
				return err
			}
		case ir.OpMov:
			if kind(in.Dst) != kind(in.A) {
				return errf(pc, "mov between kinds %d and %d", kind(in.A), kind(in.Dst))
			}
			o.Op = [3]Op{OpMovI, OpMovF, OpMovR}[fc.RegBank[in.Dst]]
			o.Dst, o.A = slot(in.Dst), slot(in.A)
		case ir.OpLoadParam:
			o.Op, o.Dst, o.Imm = OpLoadParam, slot(in.Dst), in.Imm
			if err := want(pc, in.Dst, ir.ElemInt); err != nil {
				return err
			}

		case ir.OpAddI, ir.OpSubI, ir.OpMulI, ir.OpDivI, ir.OpModI:
			o.Op = binaryOps[in.Op]
			o.Dst, o.A, o.B = slot(in.Dst), slot(in.A), slot(in.B)
			for _, r := range []ir.Reg{in.Dst, in.A, in.B} {
				if err := wantWord(pc, r); err != nil {
					return err
				}
			}
		case ir.OpNegI:
			o.Op, o.Dst, o.A = OpNegI, slot(in.Dst), slot(in.A)
			if err := wantWord(pc, in.Dst); err != nil {
				return err
			}
			if err := wantWord(pc, in.A); err != nil {
				return err
			}
		case ir.OpAddF, ir.OpSubF, ir.OpMulF, ir.OpDivF:
			o.Op = binaryOps[in.Op]
			o.Dst, o.A, o.B = slot(in.Dst), slot(in.A), slot(in.B)
			for _, r := range []ir.Reg{in.Dst, in.A, in.B} {
				if err := want(pc, r, ir.ElemFloat); err != nil {
					return err
				}
			}
		case ir.OpNegF:
			o.Op, o.Dst, o.A = OpNegF, slot(in.Dst), slot(in.A)
			if err := want(pc, in.Dst, ir.ElemFloat); err != nil {
				return err
			}
			if err := want(pc, in.A, ir.ElemFloat); err != nil {
				return err
			}
		case ir.OpIntToFloat:
			o.Op, o.Dst, o.A = OpI2F, slot(in.Dst), slot(in.A)
			if err := want(pc, in.Dst, ir.ElemFloat); err != nil {
				return err
			}
			if err := wantWord(pc, in.A); err != nil {
				return err
			}
		case ir.OpFloatToInt:
			o.Op, o.Dst, o.A = OpF2I, slot(in.Dst), slot(in.A)
			if err := wantWord(pc, in.Dst); err != nil {
				return err
			}
			if err := want(pc, in.A, ir.ElemFloat); err != nil {
				return err
			}

		case ir.OpEq, ir.OpNe:
			ne := in.Op == ir.OpNe
			o.Dst = slot(in.Dst)
			if err := want(pc, in.Dst, ir.ElemBool); err != nil {
				return err
			}
			ka, kb := kind(in.A), kind(in.B)
			if ka != kb {
				// The interpreter's Value.Equal is false across kinds, so the
				// comparison folds to a constant of the same cost.
				o.Op = OpConstI
				if ne {
					o.Imm = 1
				}
				break
			}
			o.A, o.B = slot(in.A), slot(in.B)
			switch ka {
			case ir.ElemFloat:
				o.Op = OpEqF
			case ir.ElemRef:
				o.Op = OpEqR
			default:
				o.Op = OpEqI
			}
			if ne {
				o.Op++ // Ne variants directly follow their Eq counterparts
			}
		case ir.OpLtI, ir.OpLeI, ir.OpGtI, ir.OpGeI:
			o.Op = binaryOps[in.Op]
			o.Dst, o.A, o.B = slot(in.Dst), slot(in.A), slot(in.B)
			if err := want(pc, in.Dst, ir.ElemBool); err != nil {
				return err
			}
			if err := wantWord(pc, in.A); err != nil {
				return err
			}
			if err := wantWord(pc, in.B); err != nil {
				return err
			}
		case ir.OpLtF, ir.OpLeF, ir.OpGtF, ir.OpGeF:
			o.Op = binaryOps[in.Op]
			o.Dst, o.A, o.B = slot(in.Dst), slot(in.A), slot(in.B)
			if err := want(pc, in.Dst, ir.ElemBool); err != nil {
				return err
			}
			if err := want(pc, in.A, ir.ElemFloat); err != nil {
				return err
			}
			if err := want(pc, in.B, ir.ElemFloat); err != nil {
				return err
			}
		case ir.OpNot:
			o.Op, o.Dst, o.A = OpNot, slot(in.Dst), slot(in.A)
			if err := want(pc, in.Dst, ir.ElemBool); err != nil {
				return err
			}
			if err := wantWord(pc, in.A); err != nil {
				return err
			}

		case ir.OpJump:
			o.Op, o.Imm = OpJump, in.Imm
		case ir.OpBrFalse:
			o.Op, o.A, o.Imm = OpBrFalse, slot(in.A), in.Imm
			if err := wantWord(pc, in.A); err != nil {
				return err
			}

		case ir.OpCall:
			callee := m.Funcs[in.Imm]
			cf := p.Funcs[in.Imm]
			moves := make([]ArgMove, len(in.Args))
			for i, r := range in.Args {
				if fc.RegBank[r] != callee.RegBank[i] || kind(r) != cf.RegKinds[i] {
					return errf(pc, "call %s: arg %d kind %d, param wants %d",
						callee.Name, i, kind(r), cf.RegKinds[i])
				}
				moves[i] = ArgMove{Bank: callee.RegBank[i], Src: slot(r), Dst: callee.RegSlot[i]}
			}
			if len(moves) != cf.NParams {
				callee.zeroAll()
			}
			o.Op, o.Imm, o.Args = OpCall, in.Imm, moves
			o.Dst = -1
			if in.Dst != ir.NoReg {
				o.Dst, o.C = slot(in.Dst), int32(fc.RegBank[in.Dst])
				// Every value-returning path of the callee must produce the
				// kind the caller's destination expects.
				for _, cin := range cf.Code {
					if cin.Op == ir.OpRet && cin.A != ir.NoReg && cf.RegKinds[cin.A] != kind(in.Dst) {
						return errf(pc, "call %s: returns kind %d into kind %d",
							callee.Name, cf.RegKinds[cin.A], kind(in.Dst))
					}
				}
			}
		case ir.OpCallExtern:
			o.Imm = in.Imm
			o.Cost = int32(ir.Instr{Op: ir.OpCallExtern}.Cost() + p.Externs[in.Imm].Cost)
			if unboxed(o, m.Ext[in.Imm].Form(), in, fc, f.RegKinds) {
				break
			}
			moves := make([]ArgMove, len(in.Args))
			for i, r := range in.Args {
				moves[i] = ArgMove{Bank: fc.RegBank[r], Src: slot(r), Dst: int32(i)}
			}
			o.Args = moves
			o.Dst = -1
			o.Op = OpCallExtI
			if in.Dst != ir.NoReg {
				o.Dst = slot(in.Dst)
				switch kind(in.Dst) {
				case ir.ElemFloat:
					o.Op = OpCallExtF
				case ir.ElemInt:
					o.Op = OpCallExtI
				default:
					return errf(pc, "extern result into kind %d register", kind(in.Dst))
				}
			}
		case ir.OpRet:
			o.C = fc.NInts // the frame's collapse counter
			if in.A == ir.NoReg {
				o.Op = OpRetVoid
				break
			}
			o.A = slot(in.A)
			switch fc.RegBank[in.A] {
			case BankFloat:
				o.Op = OpRetF
			case BankRef:
				o.Op = OpRetR
			default:
				o.Op = OpRetI
			}

		case ir.OpNew:
			o.Op, o.Dst, o.Imm = OpNew, slot(in.Dst), in.Imm
			if err := want(pc, in.Dst, ir.ElemRef); err != nil {
				return err
			}
		case ir.OpNewArr:
			o.Op, o.Dst, o.A, o.Imm = OpNewArr, slot(in.Dst), slot(in.A), in.Imm
			if err := want(pc, in.Dst, ir.ElemRef); err != nil {
				return err
			}
			if err := wantWord(pc, in.A); err != nil {
				return err
			}
		case ir.OpLoadField:
			o.Dst, o.A, o.Imm = slot(in.Dst), slot(in.A), in.Imm
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
			switch fc.RegBank[in.Dst] {
			case BankFloat:
				o.Op = OpLoadFieldF
			case BankRef:
				o.Op = OpLoadFieldR
			default:
				o.Op = OpLoadFieldI
			}
		case ir.OpStoreField:
			o.A, o.B, o.Imm = slot(in.A), slot(in.B), in.Imm
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
			switch kind(in.B) {
			case ir.ElemFloat:
				o.Op = OpStoreFieldF
			case ir.ElemRef:
				o.Op = OpStoreFieldR
			case ir.ElemBool:
				o.Op = OpStoreFieldB
			default:
				o.Op = OpStoreFieldI
			}
		case ir.OpLoadIndex:
			o.Dst, o.A, o.B = slot(in.Dst), slot(in.A), slot(in.B)
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
			if err := wantWord(pc, in.B); err != nil {
				return err
			}
			switch fc.RegBank[in.Dst] {
			case BankFloat:
				o.Op = OpLoadIndexF
			case BankRef:
				o.Op = OpLoadIndexR
			default:
				o.Op = OpLoadIndexI
			}
		case ir.OpStoreIndex:
			o.A, o.B, o.C = slot(in.A), slot(in.B), slot(in.C)
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
			if err := wantWord(pc, in.B); err != nil {
				return err
			}
			switch kind(in.C) {
			case ir.ElemFloat:
				o.Op = OpStoreIndexF
			case ir.ElemRef:
				o.Op = OpStoreIndexR
			case ir.ElemBool:
				o.Op = OpStoreIndexB
			default:
				o.Op = OpStoreIndexI
			}
		case ir.OpLen:
			o.Op, o.Dst, o.A = OpLen, slot(in.Dst), slot(in.A)
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
			if err := wantWord(pc, in.Dst); err != nil {
				return err
			}

		case ir.OpPrint:
			o.A = slot(in.A)
			switch kind(in.A) {
			case ir.ElemFloat:
				o.Op = OpPrintF
			case ir.ElemRef:
				o.Op = OpPrintR
			case ir.ElemBool:
				o.Op = OpPrintB
			default:
				o.Op = OpPrintI
			}

		case ir.OpAcquire, ir.OpRelease:
			if in.Op == ir.OpAcquire {
				o.Op = OpAcquire
			} else {
				o.Op = OpRelease
			}
			o.A = slot(in.A)
			o.Cost = 0 // the runtime charges sync costs along its own paths
			if err := want(pc, in.A, ir.ElemRef); err != nil {
				return err
			}
		case ir.OpAcquireIf, ir.OpReleaseIf:
			return errf(pc, "conditional sync site: flag dispatch runs on the reference oracle")

		case ir.OpParallel:
			moves := make([]ArgMove, len(in.Args))
			for i, r := range in.Args {
				moves[i] = ArgMove{Bank: fc.RegBank[r], Src: slot(r), Dst: int32(i)}
			}
			// A worker's frame receives the captured arguments plus the
			// iteration index (sectionStep's fill).
			for _, v := range p.Sections[in.Imm].Versions {
				if p.Funcs[v.FuncID].NParams != len(moves)+1 {
					m.Funcs[v.FuncID].zeroAll()
				}
			}
			o.Op, o.Imm, o.Args = OpParallel, in.Imm, moves
			o.A, o.B = slot(in.A), slot(in.B)
			o.Cost = 0
			if err := wantWord(pc, in.A); err != nil {
				return err
			}
			if err := wantWord(pc, in.B); err != nil {
				return err
			}

		default:
			return errf(pc, "unsupported opcode %v", in.Op)
		}
	}
	fc.Code = out
	fc.Plain = out // alias until fuse builds Code
	return nil
}

// externSigs gives a typed form its unboxed opcode and the operand kinds a
// call must have to use it (bool arguments count as int words, as boxing
// makes them). Lowering gives every call a result register, work's an int
// one. Only the forms the census workloads call have an opcode; the
// others stay boxed.
var externSigs = [...]struct {
	op   Op
	args []ir.ElemKind
	res  ir.ElemKind
}{
	ExtFFF:  {OpCallFFF, []ir.ElemKind{ir.ElemFloat, ir.ElemFloat}, ir.ElemFloat},
	ExtIF:   {OpCallIF, []ir.ElemKind{ir.ElemInt}, ir.ElemFloat},
	ExtWork: {OpCallWork, []ir.ElemKind{ir.ElemInt}, ir.ElemInt},
}

// unboxed compiles an extern call to the unboxed opcode of its extern's
// form when the call's operands have the form's kinds, and reports whether
// it did. A call without a result register, or whose operands do not fit,
// stays boxed.
func unboxed(o *Instr, form ExternForm, in ir.Instr, fc *FuncCode, kinds []ir.ElemKind) bool {
	if int(form) >= len(externSigs) || externSigs[form].op == 0 {
		return false
	}
	sig := externSigs[form]
	if in.Dst == ir.NoReg || kinds[in.Dst] != sig.res || len(in.Args) != len(sig.args) {
		return false
	}
	for i, r := range in.Args {
		if k := kinds[r]; k != sig.args[i] && (k != ir.ElemBool || sig.args[i] != ir.ElemInt) {
			return false
		}
	}
	o.Op, o.Dst, o.A = sig.op, fc.RegSlot[in.Dst], fc.RegSlot[in.Args[0]]
	if len(in.Args) > 1 {
		o.B = fc.RegSlot[in.Args[1]]
	}
	return true
}

// markTailCalls rewrites self-recursive calls in tail position into
// OpTailCall, restarting at pc 0 on the frame's collapse counter (int slot
// NInts), which every return of the function replays.
//
// Soundness: the eventual return replays its own instruction once per
// collapsed frame, reading the innermost activation's registers. A
// `call self; ret d` site with d the call's destination forwards the
// callee's value unchanged, so the innermost return value (or zero, for
// a void-returning path, matching Value{}'s zero reads) is exactly what
// the original caller receives. A `call self; retvoid` site instead
// discards whatever the callee returned — that only coincides with the
// replayed instruction's effect when every return in the function is
// void, so the void pattern requires it.
func markTailCalls(fc *FuncCode) {
	allVoid := true
	for pc := range fc.Code {
		op := fc.Code[pc].Op
		if op == OpRetI || op == OpRetF || op == OpRetR {
			allVoid = false
			break
		}
	}
	for pc := 0; pc+1 < len(fc.Code); pc++ {
		in := &fc.Code[pc]
		if in.Op != OpCall || int(in.Imm) != fc.ID {
			continue
		}
		ret := &fc.Code[pc+1]
		switch ret.Op {
		case OpRetI, OpRetF, OpRetR:
			var rb int32
			switch ret.Op {
			case OpRetF:
				rb = BankFloat
			case OpRetR:
				rb = BankRef
			}
			if in.Dst < 0 || ret.A != in.Dst || rb != in.C {
				continue
			}
		case OpRetVoid:
			if !allVoid {
				continue
			}
		default:
			continue
		}
		if seq, ok := sequenceMoves(fc, in.Args); ok {
			in.Op, in.Args, in.D, in.E = OpTailCall, seq, fc.NInts, 0
		}
	}
}

// sequenceMoves turns a tail call's parallel argument move into a list the
// engine can run as plain in-order copies within the frame: identity moves
// are dropped, a move is emitted once no pending move still reads its
// destination, and a cycle is broken by parking one value in a local the
// move set does not read (every local is dead across the restart). It
// fails — the site stays an ordinary call — only when a cycle's bank has
// no such local.
func sequenceMoves(fc *FuncCode, par []ArgMove) ([]ArgMove, bool) {
	var pending, out []ArgMove
	for _, mv := range par {
		if mv.Src != mv.Dst {
			pending = append(pending, mv)
		}
	}
	reads := func(moves []ArgMove, bank uint8, slot int32) bool {
		for _, mv := range moves {
			if mv.Bank == bank && mv.Src == slot {
				return true
			}
		}
		return false
	}
	for len(pending) > 0 {
		rest := pending[:0:0]
		for i, mv := range pending {
			if reads(pending[:i], mv.Bank, mv.Dst) || reads(pending[i+1:], mv.Bank, mv.Dst) {
				rest = append(rest, mv)
			} else {
				out = append(out, mv)
			}
		}
		if len(rest) < len(pending) {
			pending = rest
			continue
		}
		// Only cycles remain.
		mv := pending[0]
		lo, hi := fc.PInts, fc.NInts
		switch mv.Bank {
		case BankFloat:
			lo, hi = fc.PFloats, fc.NFloats
		case BankRef:
			lo, hi = fc.PRefs, fc.NRefs
		}
		tmp := lo
		for tmp < hi && reads(par, mv.Bank, tmp) {
			tmp++
		}
		if tmp == hi {
			return nil, false
		}
		out = append(out, ArgMove{Bank: mv.Bank, Src: mv.Dst, Dst: tmp})
		for i := range pending {
			if pending[i].Bank == mv.Bank && pending[i].Src == mv.Dst {
				pending[i].Src = tmp
			}
		}
	}
	return out, true
}

// markZeroing decides, per bank, whether an activation of fc must start
// from zeroed registers: a bank needs it when one of its registers can be
// read before it is written. That is a forward definitely-written
// analysis over the (plain, 1:1) code: one sweep carries the set of
// registers written on every path so far, meeting it into jump targets;
// a backward jump that narrows an already-visited target — irreducible
// hand-built code; a loop's back edge never does, sets only grow along a
// path — asks for another sweep. Parameters start written: every
// activation site passes them all (zeroAll covers the functions where it
// does not). A self tail call restarts at pc 0 over the old registers
// with fresh parameters, which is the same entry condition.
// scratch is reused between functions and returned, possibly grown.
func (fc *FuncCode) markZeroing(scratch []uint64) []uint64 {
	n := len(fc.Code)
	off := [4]int32{0, 0, fc.NInts, fc.NInts + fc.NFloats} // bank+1 -> first bit
	w := (int(fc.NInts+fc.NFloats+fc.NRefs) + 63) / 64
	if need := (n + 2) * w; cap(scratch) < need {
		scratch = make([]uint64, need)
	}
	at := scratch[:(n+1)*w] // per pc: written on every jump into it; all ones until one arrives
	cur := scratch[(n+1)*w : (n+2)*w]
	for i := range at {
		at[i] = ^uint64(0)
	}
	var zero [4]bool
	read := func(x uint8, slot int32) {
		if b := off[x] + slot; x != 0 && cur[b>>6]>>(b&63)&1 == 0 {
			zero[x] = true
		}
	}
	for again := true; again; {
		again = false
		clear(cur)
		for x, p := range [4]int32{0, fc.PInts, fc.PFloats, fc.PRefs} {
			for b := off[x]; b < off[x]+p; b++ {
				cur[b>>6] |= 1 << (b & 63)
			}
		}
		for pc := range fc.Code {
			for i, x := range at[pc*w : pc*w+w] {
				cur[i] &= x
			}
			in := &fc.Code[pc]
			r := opRegs[in.Op]
			read(r.a, in.A)
			read(r.b, in.B)
			read(r.c, in.C)
			for _, mv := range in.Args {
				read(mv.Bank+1, mv.Src)
			}
			if in.Op == OpCall {
				r.dst = uint8(in.C) + 1
			}
			if r.dst != 0 && in.Dst >= 0 {
				b := off[r.dst] + in.Dst
				cur[b>>6] |= 1 << (b & 63)
			}
			if t := int(in.Imm); (in.Op == OpJump || in.Op == OpBrFalse) && t >= 0 && t <= n {
				for i, x := range at[t*w : t*w+w] {
					if m := x & cur[i]; m != x {
						at[t*w+i] = m
						again = again || t <= pc
					}
				}
			}
			switch in.Op {
			case OpJump, OpRetI, OpRetF, OpRetR, OpRetVoid, OpTailCall:
				for i := range cur { // nothing falls through: top
					cur[i] = ^uint64(0)
				}
			}
		}
	}
	fc.ZeroInts = fc.ZeroInts || zero[xI]
	fc.ZeroFloats = fc.ZeroFloats || zero[xF]
	fc.ZeroRefs = fc.ZeroRefs || zero[xR]
	return scratch
}
