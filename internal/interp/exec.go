package interp

import (
	"repro/internal/obl/ir"
	"repro/internal/simmach"
)

// stepBudget bounds the instructions executed per scheduler dispatch. It
// only affects scheduling granularity of pure computation; shared-state
// operations always yield first, so interleavings are exact regardless.
const stepBudget = 4096

// exec interprets instructions of the top frame until a yield point.
// It returns again=true when the Step loop should continue (frames
// emptied while in a section, or after a non-yielding transition).
//
//dfvet:noalloc
func (t *task) exec(p *simmach.Proc) (simmach.Status, bool) {
	rt := t.rt
	for t.executed < stepBudget {
		fr := &t.frames[len(t.frames)-1]
		if fr.pc >= len(fr.fn.Code) {
			rt.fail("%s: fell off end of code", fr.fn.Name)
		}
		in := fr.fn.Code[fr.pc]
		switch in.Op {
		case ir.OpAcquire, ir.OpRelease, ir.OpAcquireIf, ir.OpReleaseIf:
			isCond := in.Op == ir.OpAcquireIf || in.Op == ir.OpReleaseIf
			if isCond {
				// Flag-dispatch mode (§4.2): test the site's flag for the
				// current policy; a disabled site costs only the test.
				flags := t.flags
				if flags == nil {
					flags = rt.baseFlags
				}
				if flags == nil || int(in.Imm) >= len(flags) {
					rt.fail("%s: pc %d: conditional sync without flag context", fr.fn.Name, fr.pc)
				}
				if !flags[in.Imm] {
					t.acc += ir.CostFlagTest
					t.executed++
					fr.pc++
					continue
				}
			}
			// Synchronization constructs interact with shared state:
			// execute each at the start of its own dispatch so lock events
			// happen in exact virtual-time order.
			if t.executed > 0 {
				t.flush(p)
				return simmach.Ready, false
			}
			obj := t.ref(fr, in.A)
			lock := obj.Lock(rt.m)
			t.flush(p)
			if isCond {
				p.Advance(ir.CostFlagTest)
			}
			if rt.opts.Policy == PolicyDynamic {
				p.Advance(rt.opts.InstrumentationCost)
			}
			fr.pc++
			t.executed++
			if in.Op == ir.OpRelease || in.Op == ir.OpReleaseIf {
				if rt.race != nil {
					t.unhold(lock)
				}
				p.Release(lock)
				continue
			}
			if rt.race != nil {
				t.held = append(t.held, lock) //dfvet:allow noalloc race-detection mode only; detection is documented to allocate tracking state
			}
			if !p.Acquire(lock) {
				// Blocked; the lock is granted on wake and execution
				// resumes after the acquire.
				return simmach.Blocked, false
			}
			continue
		case ir.OpParallel:
			if !t.isMain || t.sr != nil {
				rt.fail("%s: nested parallel section", fr.fn.Name)
			}
			if t.executed > 0 {
				t.flush(p)
				return simmach.Ready, false
			}
			t.flush(p)
			fr.pc++
			t.enterSection(p, fr, in)
			return simmach.Ready, false
		}
		t.acc += fr.costs[fr.pc]
		t.executed++
		fr.pc++
		regs := fr.regs
		switch in.Op {
		case ir.OpNop:
		case ir.OpConstInt:
			regs[in.Dst] = IntVal(in.Imm)
		case ir.OpConstFloat:
			regs[in.Dst] = FloatVal(in.F)
		case ir.OpConstBool:
			regs[in.Dst] = BoolVal(in.Imm != 0)
		case ir.OpConstNil:
			regs[in.Dst] = Value{}
		case ir.OpMov:
			regs[in.Dst] = regs[in.A]
		case ir.OpLoadParam:
			regs[in.Dst] = IntVal(rt.paramVals[in.Imm])
		case ir.OpAddI:
			regs[in.Dst] = IntVal(regs[in.A].I + regs[in.B].I)
		case ir.OpSubI:
			regs[in.Dst] = IntVal(regs[in.A].I - regs[in.B].I)
		case ir.OpMulI:
			regs[in.Dst] = IntVal(regs[in.A].I * regs[in.B].I)
		case ir.OpDivI:
			if regs[in.B].I == 0 {
				rt.fail("%s: integer division by zero", fr.fn.Name)
			}
			regs[in.Dst] = IntVal(regs[in.A].I / regs[in.B].I)
		case ir.OpModI:
			if regs[in.B].I == 0 {
				rt.fail("%s: integer modulo by zero", fr.fn.Name)
			}
			regs[in.Dst] = IntVal(regs[in.A].I % regs[in.B].I)
		case ir.OpNegI:
			regs[in.Dst] = IntVal(-regs[in.A].I)
		case ir.OpAddF:
			regs[in.Dst] = FloatVal(regs[in.A].F + regs[in.B].F)
		case ir.OpSubF:
			regs[in.Dst] = FloatVal(regs[in.A].F - regs[in.B].F)
		case ir.OpMulF:
			regs[in.Dst] = FloatVal(regs[in.A].F * regs[in.B].F)
		case ir.OpDivF:
			regs[in.Dst] = FloatVal(regs[in.A].F / regs[in.B].F)
		case ir.OpNegF:
			regs[in.Dst] = FloatVal(-regs[in.A].F)
		case ir.OpIntToFloat:
			regs[in.Dst] = FloatVal(float64(regs[in.A].I))
		case ir.OpFloatToInt:
			regs[in.Dst] = IntVal(int64(regs[in.A].F))
		case ir.OpEq:
			regs[in.Dst] = BoolVal(regs[in.A].Equal(regs[in.B]))
		case ir.OpNe:
			regs[in.Dst] = BoolVal(!regs[in.A].Equal(regs[in.B]))
		case ir.OpLtI:
			regs[in.Dst] = BoolVal(regs[in.A].I < regs[in.B].I)
		case ir.OpLeI:
			regs[in.Dst] = BoolVal(regs[in.A].I <= regs[in.B].I)
		case ir.OpGtI:
			regs[in.Dst] = BoolVal(regs[in.A].I > regs[in.B].I)
		case ir.OpGeI:
			regs[in.Dst] = BoolVal(regs[in.A].I >= regs[in.B].I)
		case ir.OpLtF:
			regs[in.Dst] = BoolVal(regs[in.A].F < regs[in.B].F)
		case ir.OpLeF:
			regs[in.Dst] = BoolVal(regs[in.A].F <= regs[in.B].F)
		case ir.OpGtF:
			regs[in.Dst] = BoolVal(regs[in.A].F > regs[in.B].F)
		case ir.OpGeF:
			regs[in.Dst] = BoolVal(regs[in.A].F >= regs[in.B].F)
		case ir.OpNot:
			regs[in.Dst] = BoolVal(regs[in.A].I == 0)
		case ir.OpJump:
			fr.pc = int(in.Imm)
		case ir.OpBrFalse:
			if regs[in.A].I == 0 {
				fr.pc = int(in.Imm)
			}
		case ir.OpCall:
			if len(t.frames) > 10000 {
				rt.fail("%s: call stack overflow", fr.fn.Name)
			}
			// The callee window is filled straight from the caller's
			// registers; reads from regs stay valid even if pushCall grew
			// the arena, because growth copies the backing array.
			callee := t.pushCall(int(in.Imm), in.Dst)
			for i, r := range in.Args {
				callee[i] = regs[r]
			}
		case ir.OpCallExtern:
			fn := rt.prep.extFns[in.Imm]
			args := t.extArgs[:0]
			for _, r := range in.Args {
				args = append(args, regs[r]) //dfvet:allow noalloc amortized: reuses the t.extArgs backing array at steady state
			}
			t.extArgs = args[:0]
			v, extra := fn(args)
			// The extern's declared cost is folded into the cost table;
			// only the dynamically-priced extra is added here.
			t.acc += extra
			if in.Dst != ir.NoReg {
				regs[in.Dst] = v
			}
		case ir.OpRet:
			var v Value
			if in.A != ir.NoReg {
				v = regs[in.A]
			}
			dst := fr.retDst
			t.popFrame()
			if len(t.frames) == t.baseFrames {
				// End of a section body iteration or of the program.
				t.flush(p)
				return 0, true
			}
			if dst != ir.NoReg {
				caller := &t.frames[len(t.frames)-1]
				caller.regs[dst] = v
			}
		case ir.OpNew:
			cls := rt.prog.Classes[in.Imm]
			fields := make([]Value, len(cls.Fields)) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
			for i, k := range cls.FieldKinds {
				fields[i] = zeroOf(k)
			}
			regs[in.Dst] = RefVal(&Object{Class: cls, Fields: fields}) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
		case ir.OpNewArr:
			n := regs[in.A].I
			if uint64(n) > maxArrayLen {
				rt.badArrayLen(fr.fn.Name, n)
			}
			t.acc += simmach.Time(n) * ir.CostPerElem
			elems := make([]Value, n) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
			if z := zeroOf(ir.ElemKind(in.Imm)); z.Kind != KindNil {
				for i := range elems {
					elems[i] = z
				}
			}
			regs[in.Dst] = RefVal(&Object{Elems: elems}) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
		case ir.OpLoadField:
			obj := t.ref(fr, in.A)
			if rt.race != nil && t.sr != nil {
				rt.race.access(t.held, p, obj, int(in.Imm), false, false)
			}
			regs[in.Dst] = obj.Fields[in.Imm]
		case ir.OpStoreField:
			obj := t.ref(fr, in.A)
			if rt.race != nil && t.sr != nil {
				rt.race.access(t.held, p, obj, int(in.Imm), false, true)
			}
			obj.Fields[in.Imm] = regs[in.B]
		case ir.OpLoadIndex:
			obj := t.ref(fr, in.A)
			i := regs[in.B].I
			if i < 0 || i >= int64(len(obj.Elems)) {
				rt.fail("%s: index %d out of range [0,%d)", fr.fn.Name, i, len(obj.Elems))
			}
			if rt.race != nil && t.sr != nil {
				rt.race.access(t.held, p, obj, int(i), true, false)
			}
			regs[in.Dst] = obj.Elems[i]
		case ir.OpStoreIndex:
			obj := t.ref(fr, in.A)
			i := regs[in.B].I
			if i < 0 || i >= int64(len(obj.Elems)) {
				rt.fail("%s: index %d out of range [0,%d)", fr.fn.Name, i, len(obj.Elems))
			}
			if rt.race != nil && t.sr != nil {
				rt.race.access(t.held, p, obj, int(i), true, true)
			}
			obj.Elems[i] = regs[in.C]
		case ir.OpLen:
			obj := t.ref(fr, in.A)
			regs[in.Dst] = IntVal(int64(len(obj.Elems)))
		case ir.OpPrint:
			rt.output = append(rt.output, regs[in.A].String()) //dfvet:allow noalloc program output accumulation, once per print statement
		default:
			rt.fail("%s: bad opcode %v", fr.fn.Name, in.Op)
		}
	}
	t.flush(p)
	return simmach.Ready, false
}

// ref fetches a non-nil object reference from a register.
func (t *task) ref(fr *frame, r ir.Reg) *Object {
	v := fr.regs[r]
	if v.Kind != KindRef || v.Ref == nil {
		t.rt.fail("%s: pc %d: nil dereference", fr.fn.Name, fr.pc)
	}
	return v.Ref
}
