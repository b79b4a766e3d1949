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
// The loop is two-level, like vmTask.exec's. The outer loop runs once per
// activation: it loads the top frame, its code, its cost table, its
// register window and pc. Inside the inner loop the first four are
// invariant, and pc, executed and acc live in locals. Each instruction is
// read through a pointer into the code, never copied.
//
// The state rule: fr.pc, t.executed and t.acc hold stale values while the
// inner loop runs, so they are written back before every yield and
// return, every call into the machine (flush, Acquire, Release and
// section entry, all in sync), every call into the host (hostOp's
// externs, new, newarr and print; the race detector's accesses), a call
// or a return, which leave the inner loop for the outer one to load the
// new top frame, and every fault; and reloaded after a call that returns.
// No handler keeps them live across a call, because Go's register
// allocator would then spill them on every dispatch (vmTask.exec's
// register rule); what a handler needs of in after one it rereads from
// code. The "Dispatch-path stack stores and loads of task.exec" CI step
// counts what the compiler puts on the per-step prologue.
//
//dfvet:noalloc
func (t *task) exec(p *simmach.Proc) (simmach.Status, bool) {
frames:
	for {
		fr := &t.frames[len(t.frames)-1]
		code, pc := fr.fn.Code, fr.pc
		costs, regs := fr.costs[:len(code)], fr.regs
		executed, acc := t.executed, t.acc

		for executed < stepBudget {
			if uint(pc) >= uint(len(code)) {
				fr.pc, t.executed, t.acc = pc, executed, acc
				panic(failure("%s: fell off end of code", fr.fn.Name))
			}
			in := &code[pc]
			if in.Op >= ir.OpAcquire && in.Op <= ir.OpParallel {
				fr.pc, t.executed, t.acc = pc, executed, acc
				if st, stay := t.sync(p, fr, in); !stay {
					return st, false
				}
				pc, executed, acc = fr.pc, t.executed, t.acc
				continue
			}
			acc += costs[pc]
			executed++
			pc++
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
				regs[in.Dst] = IntVal(t.rt.paramVals[in.Imm])
			case ir.OpAddI:
				regs[in.Dst] = IntVal(regs[in.A].I + regs[in.B].I)
			case ir.OpSubI:
				regs[in.Dst] = IntVal(regs[in.A].I - regs[in.B].I)
			case ir.OpMulI:
				regs[in.Dst] = IntVal(regs[in.A].I * regs[in.B].I)
			case ir.OpDivI:
				if regs[in.B].I == 0 {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(failure("%s: integer division by zero", fr.fn.Name))
				}
				regs[in.Dst] = IntVal(regs[in.A].I / regs[in.B].I)
			case ir.OpModI:
				if regs[in.B].I == 0 {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(failure("%s: integer modulo by zero", fr.fn.Name))
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
				pc = int(in.Imm)
			case ir.OpBrFalse:
				if regs[in.A].I == 0 {
					pc = int(in.Imm)
				}
			case ir.OpCall:
				fr.pc, t.executed, t.acc = pc, executed, acc
				if len(t.frames) > 10000 {
					panic(failure("%s: call stack overflow", fr.fn.Name))
				}
				// The callee window is filled straight from the caller's
				// registers; reads from regs stay valid even if pushCall
				// grew the arena, because growth copies the backing array.
				args := in.Args
				callee := t.pushCall(int(in.Imm), in.Dst)
				for i, r := range args {
					callee[i] = regs[r]
				}
				continue frames
			case ir.OpCallExtern, ir.OpNew, ir.OpNewArr, ir.OpPrint:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.hostOp(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc
			case ir.OpRet:
				t.executed, t.acc = executed, acc
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
					t.frames[len(t.frames)-1].regs[dst] = v
				}
				continue frames
			case ir.OpLoadField:
				obj := ref(&regs[in.A])
				if obj == nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(nilDeref(fr))
				}
				if t.rt.race != nil && t.sr != nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					t.rt.race.access(t.held, p, obj, int(in.Imm), false, false)
					pc, executed, acc, in = fr.pc, t.executed, t.acc, &code[fr.pc-1]
				}
				regs[in.Dst] = obj.Fields[in.Imm]
			case ir.OpStoreField:
				obj := ref(&regs[in.A])
				if obj == nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(nilDeref(fr))
				}
				if t.rt.race != nil && t.sr != nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					t.rt.race.access(t.held, p, obj, int(in.Imm), false, true)
					pc, executed, acc, in = fr.pc, t.executed, t.acc, &code[fr.pc-1]
				}
				obj.Fields[in.Imm] = regs[in.B]
			case ir.OpLoadIndex:
				obj := ref(&regs[in.A])
				if obj == nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(nilDeref(fr))
				}
				i := regs[in.B].I
				if uint64(i) >= uint64(len(obj.Elems)) {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(failure("%s: index %d out of range [0,%d)", fr.fn.Name, i, len(obj.Elems)))
				}
				if t.rt.race != nil && t.sr != nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					t.rt.race.access(t.held, p, obj, int(i), true, false)
					pc, executed, acc, in = fr.pc, t.executed, t.acc, &code[fr.pc-1]
				}
				regs[in.Dst] = obj.Elems[i]
			case ir.OpStoreIndex:
				obj := ref(&regs[in.A])
				if obj == nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(nilDeref(fr))
				}
				i := regs[in.B].I
				if uint64(i) >= uint64(len(obj.Elems)) {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(failure("%s: index %d out of range [0,%d)", fr.fn.Name, i, len(obj.Elems)))
				}
				if t.rt.race != nil && t.sr != nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					t.rt.race.access(t.held, p, obj, int(i), true, true)
					pc, executed, acc, in = fr.pc, t.executed, t.acc, &code[fr.pc-1]
				}
				obj.Elems[i] = regs[in.C]
			case ir.OpLen:
				obj := ref(&regs[in.A])
				if obj == nil {
					fr.pc, t.executed, t.acc = pc, executed, acc
					panic(nilDeref(fr))
				}
				regs[in.Dst] = IntVal(int64(len(obj.Elems)))
			default:
				fr.pc, t.executed, t.acc = pc, executed, acc
				panic(badOpcode(fr))
			}
		}
		fr.pc, t.executed, t.acc = pc, executed, acc
		t.flush(p)
		return simmach.Ready, false
	}
}

// hostOp runs the extern call, new, newarr or print at in, the
// instruction before fr.pc, for exec, which has written its state back:
// each calls into the host, so it runs out of exec's loop (the state
// rule).
//
//dfvet:noalloc
func (t *task) hostOp(fr *frame, in *ir.Instr) {
	rt, regs := t.rt, fr.regs
	switch in.Op {
	case ir.OpCallExtern:
		fn := rt.prep.extFns[in.Imm]
		args := t.extArgs[:0]
		for _, r := range in.Args {
			args = append(args, regs[r]) //dfvet:allow noalloc amortized: reuses the t.extArgs backing array at steady state
		}
		t.extArgs = args[:0]
		v, extra := fn(args)
		// The extern's declared cost is folded into the cost table; only
		// the dynamically-priced extra is added here.
		t.acc += extra
		if in.Dst != ir.NoReg {
			regs[in.Dst] = v
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
			panic(arrayLenErr(fr.fn.Name, n))
		}
		t.acc += simmach.Time(n) * ir.CostPerElem
		elems := make([]Value, n) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
		if z := zeroOf(ir.ElemKind(in.Imm)); z.Kind != KindNil {
			for i := range elems {
				elems[i] = z
			}
		}
		regs[in.Dst] = RefVal(&Object{Elems: elems}) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
	case ir.OpPrint:
		rt.output = append(rt.output, regs[in.A].String()) //dfvet:allow noalloc program output accumulation, once per print statement
	}
}

// sync runs the acquire, release or section entry at in, the instruction
// at fr.pc, for exec, which has written its state back. It returns
// stay=true when exec goes on in this dispatch, from the state sync wrote
// back; otherwise the dispatch ends with st. Every such instruction
// touches shared state, so it runs at the start of its own dispatch, and
// lock events happen in exact virtual-time order.
//
//dfvet:noalloc
func (t *task) sync(p *simmach.Proc, fr *frame, in *ir.Instr) (st simmach.Status, stay bool) {
	rt := t.rt
	if in.Op == ir.OpParallel {
		if !t.isMain || t.sr != nil {
			rt.fail("%s: nested parallel section", fr.fn.Name)
		}
		t.flush(p)
		if t.executed > 0 {
			return simmach.Ready, false
		}
		fr.pc++
		t.enterSection(p, fr, in)
		return simmach.Ready, false
	}
	isCond := in.Op == ir.OpAcquireIf || in.Op == ir.OpReleaseIf
	if isCond {
		// Flag-dispatch mode (§4.2): test the site's flag for the current
		// policy; a disabled site costs only the test, and does not yield.
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
			return 0, true
		}
	}
	if t.executed > 0 {
		t.flush(p)
		return simmach.Ready, false
	}
	obj := ref(&fr.regs[in.A])
	if obj == nil {
		panic(nilDeref(fr))
	}
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
		return 0, true
	}
	if rt.race != nil {
		t.held = append(t.held, lock) //dfvet:allow noalloc race-detection mode only; detection is documented to allocate tracking state
	}
	if !p.Acquire(lock) {
		// Blocked; the lock is granted on wake and execution resumes after
		// the acquire.
		return simmach.Blocked, false
	}
	return 0, true
}

// ref is the object register v holds, or nil when it holds none.
func ref(v *Value) *Object {
	if v.Kind != KindRef {
		return nil
	}
	return v.Ref
}

// nilDeref is the fault of a nil receiver at fr's pc, as written back.
//
//go:noinline
func nilDeref(fr *frame) runtimeErr {
	return failure("%s: pc %d: nil dereference", fr.fn.Name, fr.pc)
}

// badOpcode is the fault of an opcode exec has no case for, the one
// before fr's pc, as written back.
//
//go:noinline
func badOpcode(fr *frame) runtimeErr {
	return failure("%s: bad opcode %v", fr.fn.Name, fr.fn.Code[fr.pc-1].Op)
}
