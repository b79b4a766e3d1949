package interp

import (
	"fmt"
	"strconv"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
	"repro/internal/simmach"
)

// exec is the bytecode dispatch loop, the VM counterpart of execSome.
// Instruction-for-instruction it reproduces the interpreter's charging and
// yield discipline: the step budget counts original instructions (fused
// groups count their length and fall back to the per-slot plain overlay
// when the remaining budget cannot admit the whole group), sync
// instructions yield first whenever prior work exists in the dispatch —
// except a release no processor waits for, which it takes in place and
// the machine counts as the dispatch it spares — and tail-call collapse
// replays the folded returns as one budget step each, as many in one
// dispatch as the budget admits. OpDescend runs a binary descent's whole
// levels in host registers while the budget admits every group of the
// next level whole, and leaves a level it cannot to the groups.
// OpCallLinear runs a planned linear recursion whole in one dispatch when
// the budget and the call-depth check admit all of it, and is an OpCall
// otherwise. Its sync instructions are the unconditional acquire and
// release: vm.Compile rejects conditional sites, whose programs Run hands
// to the oracle.
//
// The loop is two-level. The outer loop runs once per activation: it
// loads the frame, its code, its three bank windows and the dispatch state
// (pc from the frame, executed and acc from the task). Inside the inner
// loop the frame's values are invariant and only pc, executed, acc and the
// current instruction in change from one dispatch to the next.
//
// The register rule keeps that state in registers. Go's register
// allocator spills a value where it is defined as soon as any path
// reloads it, so one handler that needs pc back from the stack makes every
// dispatch store it. No handler may therefore keep the state live across
// a call, nor run a loop or a register-hungry sequence with it live. A
// handler that calls or loops does one of three things:
//   - it writes the state back (fr.pc, t.executed, t.acc), runs the work
//     in a helper that reads the frame and the task, and reloads the state
//     (sync, the externs, new, print, the inline entries, the descent
//     loop, tail calls, the return replay, a linear recursion). What it
//     needs of in after the call it reads into locals first, or rereads
//     from code;
//   - it writes the state back and leaves the inner loop (continue frames
//     reloads it, or exec returns): a call, a linear recursion run in
//     frames, and a return;
//   - it faults with a panic at the call site, so the path visibly ends
//     there. The fault helpers (failure, vmFault, nilDeref, indexFault)
//     build the error, and they take the pc after the advance rather than
//     exec computing pc-1: the compiler would rebuild that from the pc
//     before the advance and keep it alive.
//
// A new handler that calls must take one of these shapes, and a helper it
// calls carries its own //dfvet:noalloc (the analyzer checks an annotated
// function's body, not its callees) and a row in
// TestNoallocAnnotationCoverage. The "Dispatch-path stack stores and loads" CI step counts what the compiler
// puts on the dispatch path and fails when either count grows.
//
//dfvet:noalloc
func (t *vmTask) exec(p *simmach.Proc) (simmach.Status, bool) {
	if censusOn {
		censusEntry()
	}

frames:
	for {
		fr := t.top() // out of line: inlined, fr would take two registers
		code := fr.fc.Code
		pc, executed, acc := fr.pc, t.executed, t.acc
		// The windows have one length (vmFrame): reslicing the other two
		// to the ints window's length lets one register bound all three.
		ints := fr.ints
		floats, refs := fr.floats[:len(ints)], fr.refs[:len(ints)]

		for executed < stepBudget {
			if uint(pc) >= uint(len(code)) {
				panic(failure("%s: fell off end of code", fr.fc.Name))
			}
			// The index is a copy of pc, which the address arithmetic may
			// overwrite: indexed by pc itself, the compiler spills pc first.
			in := &code[uint32(pc)]
			if in.Len > 1 && executed > stepBudget-int(in.Len) {
				// Not enough budget for the whole fused group: execute the
				// plain instructions so the dispatch boundary lands exactly
				// where the interpreter's per-instruction count puts it.
				// Plain is as long as code, so the check above bounds pc.
				in = &fr.fc.Plain[:len(code)][pc]
			}
			if censusOn {
				censusOp(t.mod, fr.fc, pc, in)
			}

			if in.Op >= vm.OpSyncStart {
				fr.pc, t.executed, t.acc = pc, executed, acc
				if st, stay := t.sync(p, fr, in); !stay {
					return st, false
				}
				pc, executed, acc = fr.pc, t.executed, t.acc
				continue
			}

			acc += simmach.Time(in.Cost)
			executed += int(in.Len)
			pc += int(in.Len)

			switch in.Op {
			case vm.OpNop:
			case vm.OpConstI:
				ints[in.Dst] = in.Imm
			case vm.OpConstF:
				floats[in.Dst] = in.F()
			case vm.OpConstNil:
				refs[in.Dst] = nil
			case vm.OpMovI:
				ints[in.Dst] = ints[in.A]
			case vm.OpMovF:
				floats[in.Dst] = floats[in.A]
			case vm.OpMovR:
				refs[in.Dst] = refs[in.A]
			case vm.OpLoadParam:
				ints[in.Dst] = t.rt.paramVals[in.Imm]

			case vm.OpAddI:
				ints[in.Dst] = ints[in.A] + ints[in.B]
			case vm.OpSubI:
				ints[in.Dst] = ints[in.A] - ints[in.B]
			case vm.OpMulI:
				ints[in.Dst] = ints[in.A] * ints[in.B]
			case vm.OpDivI:
				if ints[in.B] == 0 {
					panic(t.vmFault(fr.fc, pc, "integer division by zero"))
				}
				ints[in.Dst] = ints[in.A] / ints[in.B]
			case vm.OpModI:
				if ints[in.B] == 0 {
					panic(t.vmFault(fr.fc, pc, "integer modulo by zero"))
				}
				ints[in.Dst] = ints[in.A] % ints[in.B]
			case vm.OpNegI:
				ints[in.Dst] = -ints[in.A]
			case vm.OpAddF:
				floats[in.Dst] = floats[in.A] + floats[in.B]
			case vm.OpSubF:
				floats[in.Dst] = floats[in.A] - floats[in.B]
			case vm.OpMulF:
				floats[in.Dst] = floats[in.A] * floats[in.B]
			case vm.OpDivF:
				floats[in.Dst] = floats[in.A] / floats[in.B]
			case vm.OpNegF:
				floats[in.Dst] = -floats[in.A]
			case vm.OpI2F:
				floats[in.Dst] = float64(ints[in.A])
			case vm.OpF2I:
				ints[in.Dst] = int64(floats[in.A])

			case vm.OpEqI:
				ints[in.Dst] = b2w(ints[in.A] == ints[in.B])
			case vm.OpNeI:
				ints[in.Dst] = b2w(ints[in.A] != ints[in.B])
			case vm.OpEqF:
				ints[in.Dst] = b2w(floats[in.A] == floats[in.B])
			case vm.OpNeF:
				ints[in.Dst] = b2w(floats[in.A] != floats[in.B])
			case vm.OpEqR:
				ints[in.Dst] = b2w(refs[in.A] == refs[in.B])
			case vm.OpNeR:
				ints[in.Dst] = b2w(refs[in.A] != refs[in.B])
			case vm.OpLtI:
				ints[in.Dst] = b2w(ints[in.A] < ints[in.B])
			case vm.OpLeI:
				ints[in.Dst] = b2w(ints[in.A] <= ints[in.B])
			case vm.OpGtI:
				ints[in.Dst] = b2w(ints[in.A] > ints[in.B])
			case vm.OpGeI:
				ints[in.Dst] = b2w(ints[in.A] >= ints[in.B])
			case vm.OpLtF:
				ints[in.Dst] = b2w(floats[in.A] < floats[in.B])
			case vm.OpLeF:
				ints[in.Dst] = b2w(floats[in.A] <= floats[in.B])
			case vm.OpGtF:
				ints[in.Dst] = b2w(floats[in.A] > floats[in.B])
			case vm.OpGeF:
				ints[in.Dst] = b2w(floats[in.A] >= floats[in.B])
			case vm.OpNot:
				ints[in.Dst] = b2w(ints[in.A] == 0)

			case vm.OpJump:
				pc = int(in.Imm)
			case vm.OpBrFalse:
				if ints[in.A] == 0 {
					pc = int(in.Imm)
				}

			case vm.OpCall:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.call(fr, in)
				continue frames
			case vm.OpCallLinear:
				fr.pc, t.executed, t.acc = pc, executed, acc
				if !t.callLinear(fr, in) {
					continue frames // it pushed the callee's frame
				}
				pc, executed, acc = fr.pc, t.executed, t.acc

			case vm.OpTailCall, vm.OpIKTailCall:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.tailCall(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc

			case vm.OpCallExtI, vm.OpCallExtF:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.callExt(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc
			case vm.OpCallFFF:
				f, x, y, dst := t.mod.Ext[in.Imm].FFF, floats[in.A], floats[in.B], in.Dst
				fr.pc, t.executed, t.acc = pc, executed, acc
				v := f(x, y)
				pc, executed, acc = fr.pc, t.executed, t.acc
				floats[dst] = v
			case vm.OpCallIF:
				f, x, dst := t.mod.Ext[in.Imm].IF, ints[in.A], in.Dst
				fr.pc, t.executed, t.acc = pc, executed, acc
				v := f(x)
				pc, executed, acc = fr.pc, t.executed, t.acc
				floats[dst] = v
			case vm.OpCallWork:
				n := ints[in.A]
				ints[in.Dst] = 0
				acc += workCharge(n)
			case vm.OpWorkParam:
				n := t.rt.paramVals[in.Imm]
				ints[in.Dst] = n
				ints[in.B] = 0
				acc += workCharge(n)

			case vm.OpRetI, vm.OpRetF, vm.OpRetR, vm.OpRetVoid, vm.OpIRetN:
				if ints[in.C] > 0 {
					// The collapsed tail calls' returns replay first. A replay
					// the budget cannot finish ends the dispatch on the
					// return. in is reread: the register rule keeps it out
					// of the call.
					fr.pc, t.executed, t.acc = pc, executed, acc
					done := t.replay(fr, in)
					pc, executed, acc = fr.pc, t.executed, t.acc
					if !done {
						continue
					}
					in = &code[pc-1]
				}
				if in.Op == vm.OpIRetN {
					// A self-tail-recursive splice returns.
					t.collapsed-- // the callee's frame the splice stands for
					iretN(in, ints, floats, refs)
					pc = int(in.Imm)
					continue
				}
				// Deliver the value through the caller's frame, then re-enter
				// the outer loop on it.
				t.executed, t.acc = executed, acc
				retSlot, retBank := fr.retSlot, fr.retBank
				var vI int64
				var vF float64
				var vR *Object
				switch in.Op {
				case vm.OpRetI:
					vI, retBank = ints[in.A], vm.BankInt
				case vm.OpRetF:
					vF, retBank = floats[in.A], vm.BankFloat
				case vm.OpRetR:
					vR, retBank = refs[in.A], vm.BankRef
				}
				t.popFrame()
				if len(t.frames) == t.baseFrames {
					t.flush(p)
					return 0, true
				}
				if retSlot >= 0 {
					// A void return into a live destination writes the zero of
					// the destination's bank: the interpreter writes Value{},
					// which reads back as zero in any kind.
					caller := &t.frames[len(t.frames)-1]
					switch retBank {
					case vm.BankFloat:
						caller.floats[retSlot] = vF
					case vm.BankRef:
						caller.refs[retSlot] = vR
					default:
						caller.ints[retSlot] = vI
					}
				}
				continue frames

			case vm.OpNew:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.newObject(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc
			case vm.OpNewArr:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.newArray(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc

			case vm.OpLoadFieldI:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				ints[in.Dst] = obj.Fields[in.Imm].I
			case vm.OpLoadFieldF:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				floats[in.Dst] = obj.Fields[in.Imm].F
			case vm.OpLoadFieldR:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				refs[in.Dst] = obj.Fields[in.Imm].Ref
			case vm.OpStoreFieldI, vm.OpStoreFieldB, vm.OpStoreFieldF, vm.OpStoreFieldR:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				switch in.Op {
				case vm.OpStoreFieldI:
					obj.Fields[in.Imm] = Value{Kind: KindInt, I: ints[in.B]}
				case vm.OpStoreFieldB:
					obj.Fields[in.Imm] = Value{Kind: KindBool, I: ints[in.B]}
				case vm.OpStoreFieldF:
					obj.Fields[in.Imm] = Value{Kind: KindFloat, F: floats[in.B]}
				default:
					if r := refs[in.B]; r != nil {
						obj.Fields[in.Imm] = Value{Kind: KindRef, Ref: r}
					} else {
						obj.Fields[in.Imm] = Value{}
					}
				}

			case vm.OpLoadIndexI, vm.OpLoadIndexF, vm.OpLoadIndexR:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				i := ints[in.B]
				if i < 0 || i >= int64(len(obj.Elems)) {
					panic(t.indexFault(fr.fc, pc, i, len(obj.Elems)))
				}
				switch in.Op {
				case vm.OpLoadIndexI:
					ints[in.Dst] = obj.Elems[i].I
				case vm.OpLoadIndexF:
					floats[in.Dst] = obj.Elems[i].F
				default:
					refs[in.Dst] = obj.Elems[i].Ref
				}
			case vm.OpStoreIndexI, vm.OpStoreIndexB, vm.OpStoreIndexF, vm.OpStoreIndexR:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				i := ints[in.B]
				if i < 0 || i >= int64(len(obj.Elems)) {
					panic(t.indexFault(fr.fc, pc, i, len(obj.Elems)))
				}
				switch in.Op {
				case vm.OpStoreIndexI:
					obj.Elems[i] = Value{Kind: KindInt, I: ints[in.C]}
				case vm.OpStoreIndexB:
					obj.Elems[i] = Value{Kind: KindBool, I: ints[in.C]}
				case vm.OpStoreIndexF:
					obj.Elems[i] = Value{Kind: KindFloat, F: floats[in.C]}
				default:
					if r := refs[in.C]; r != nil {
						obj.Elems[i] = Value{Kind: KindRef, Ref: r}
					} else {
						obj.Elems[i] = Value{}
					}
				}
			case vm.OpLen:
				obj := t.vref(in, refs, fr.fc, pc, 1)
				ints[in.Dst] = int64(len(obj.Elems))

			case vm.OpPrintI, vm.OpPrintB, vm.OpPrintF, vm.OpPrintR:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.print(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc

			case vm.OpCallEnter, vm.OpEnterDescend:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.enter(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc
			case vm.OpIRetI:
				ints[in.Dst] = ints[in.A]
				pc = int(in.Imm)
			case vm.OpIRetF:
				floats[in.Dst] = floats[in.A]
				pc = int(in.Imm)
			case vm.OpIRetR:
				refs[in.Dst] = refs[in.A]
				pc = int(in.Imm)
			case vm.OpIRetVoid:
				if in.Dst >= 0 {
					switch in.B {
					case vm.BankFloat:
						floats[in.Dst] = 0
					case vm.BankRef:
						refs[in.Dst] = nil
					default:
						ints[in.Dst] = 0
					}
				}
				pc = int(in.Imm)

			case vm.OpLtIBr:
				c := ints[in.A] < ints[in.B]
				ints[in.Dst] = b2w(c)
				if !c {
					pc = int(in.Imm)
				}
			case vm.OpInc1Jump:
				ints[in.Dst] = 1
				ints[in.A]++
				pc = int(in.Imm)

			case vm.OpAddIK:
				ints[in.B] = in.Imm
				ints[in.Dst] = ints[in.A] + in.Imm
			case vm.OpMulIK:
				ints[in.B] = in.Imm
				ints[in.Dst] = ints[in.A] * in.Imm
			case vm.OpMulFK:
				k := in.F()
				floats[in.B] = k
				floats[in.Dst] = floats[in.A] * k
			case vm.OpDescend:
				fr.pc, t.executed, t.acc = pc, executed, acc
				t.descend(fr, in)
				pc, executed, acc = fr.pc, t.executed, t.acc
			case vm.OpLeIKBr:
				ints[in.B] = in.Imm
				c := ints[in.A] <= in.Imm
				ints[in.Dst] = b2w(c)
				if !c {
					pc = int(in.C)
				}

			case vm.OpAddDivIKMov: // Imm != 0
				ints[in.Dst] = ints[in.A] + ints[in.B]
				ints[in.C] = in.Imm
				ints[in.D] = ints[in.Dst] / in.Imm
				ints[in.E] = ints[in.D]
			case vm.OpModIKEqIKBr: // K1 != 0
				k1, k2 := in.Imm>>32, int64(int32(in.Imm))
				ints[in.E] = k1
				ints[in.A] = ints[in.D] % k1
				ints[in.B] = k2
				c := ints[in.A] == k2
				ints[in.Dst] = b2w(c)
				if !c {
					pc = int(in.C)
				}
			case vm.OpAddFieldF:
				// A nil object faults as the group's head, the ldfld.f, does.
				obj := t.vref(in, refs, fr.fc, pc, 3)
				floats[in.D] = obj.Fields[in.Imm].F
				floats[in.Dst] = floats[in.B] + floats[in.C]
				obj.Fields[in.Imm] = Value{Kind: KindFloat, F: floats[in.Dst]}
			case vm.OpAddFieldFK:
				// The field is E: the constant takes Imm. A nil object faults
				// as the group's head, the ldfld.f, does.
				obj := t.vref(in, refs, fr.fc, pc, 4)
				k := in.F()
				floats[in.D] = obj.Fields[in.E].F
				floats[in.C] = k
				floats[in.Dst] = floats[in.B] + k
				obj.Fields[in.E] = Value{Kind: KindFloat, F: floats[in.Dst]}

			default:
				panic(failure("%s: bad opcode %v", fr.fc.Name, in.Op))
			}
		}
		fr.pc, t.executed, t.acc = pc, executed, acc
		t.flush(p)
		return simmach.Ready, false
	}
}

// sync runs the sync instruction in at the start of exec's dispatch loop
// iteration. exec has written its state back (fr.pc is in's slot) and
// reloads it from there when the dispatch stays: the instruction then ran
// and the task's pc, step count and unflushed cost are past it. Otherwise
// st is the status exec returns. A sync instruction yields first when the
// dispatch has done work, except a release no processor waits for: that
// is taken here instead of at the start of the dispatch it would yield
// for, which the machine counts as skipped (Proc.ReleaseAhead). That
// dispatch would pass the step-budget check and begin with an empty
// budget.
//
//dfvet:noalloc
func (t *vmTask) sync(p *simmach.Proc, fr *vmFrame, in *vm.Instr) (st simmach.Status, stay bool) {
	rt := t.rt
	dyn := rt.opts.Policy == PolicyDynamic
	if in.Op == vm.OpParallel {
		if !t.isMain || t.sr != nil {
			rt.fail("%s: nested parallel section", fr.fc.Name)
		}
		t.flush(p)
		if t.executed > 0 {
			return simmach.Ready, false
		}
		fr.pc++
		t.enterSection(p, fr, in)
		return simmach.Ready, false
	}
	// Acquire/release family.
	isAcq := in.Op == vm.OpAcquire
	obj := fr.refs[in.A]
	if t.executed > 0 {
		if !isAcq && obj != nil && rt.m.Steps() < rt.opts.MaxSteps {
			if lock := obj.Lock(rt.m); !lock.Queued() {
				t.flush(p)
				t.acc = 0
				at := p.Now()
				if dyn {
					p.Advance(rt.opts.InstrumentationCost)
				}
				p.ReleaseAhead(lock, at)
				fr.pc++
				t.executed = 1
				return 0, true
			}
		}
		t.flush(p)
		return simmach.Ready, false
	}
	if obj == nil {
		rt.fail("%s: pc %d: nil dereference", t.fname(fr.fc, fr.pc), fr.fc.Src[fr.pc].PC)
	}
	lock := obj.Lock(rt.m)
	t.flush(p)
	t.acc = 0
	if dyn {
		p.Advance(rt.opts.InstrumentationCost)
	}
	fr.pc++
	t.executed++
	if !isAcq {
		p.Release(lock)
		return 0, true
	}
	if !p.Acquire(lock) {
		return simmach.Blocked, false
	}
	return 0, true
}

// callExt runs a boxed extern call: the arguments go through t.extArgs as
// Values, and the extern's extra charge joins t.acc.
//
//dfvet:noalloc
func (t *vmTask) callExt(fr *vmFrame, in *vm.Instr) {
	ints, floats, refs := fr.ints, fr.floats, fr.refs
	fn := t.rt.prep.extFns[in.Imm]
	args := t.extArgs[:0]
	for _, mv := range in.Args {
		switch mv.Bank {
		case vm.BankFloat:
			args = append(args, Value{Kind: KindFloat, F: floats[mv.Src]}) //dfvet:allow noalloc amortized: reuses the t.extArgs backing array at steady state
		case vm.BankRef:
			args = append(args, Value{Kind: KindRef, Ref: refs[mv.Src]}) //dfvet:allow noalloc amortized: reuses the t.extArgs backing array at steady state
		default:
			args = append(args, Value{Kind: KindInt, I: ints[mv.Src]}) //dfvet:allow noalloc amortized: reuses the t.extArgs backing array at steady state
		}
	}
	t.extArgs = args[:0]
	v, extra := fn(args)
	t.acc += extra
	if in.Dst >= 0 {
		if in.Op == vm.OpCallExtF {
			floats[in.Dst] = v.F
		} else {
			ints[in.Dst] = v.I
		}
	}
}

// print appends a print instruction's line to the program output.
//
//dfvet:noalloc
func (t *vmTask) print(fr *vmFrame, in *vm.Instr) {
	ints, floats, refs := fr.ints, fr.floats, fr.refs
	rt := t.rt
	switch in.Op {
	case vm.OpPrintI:
		rt.output = append(rt.output, strconv.FormatInt(ints[in.A], 10)) //dfvet:allow noalloc program output accumulation, once per print statement
	case vm.OpPrintB:
		rt.output = append(rt.output, strconv.FormatBool(ints[in.A] != 0)) //dfvet:allow noalloc program output accumulation, once per print statement
	case vm.OpPrintF:
		rt.output = append(rt.output, strconv.FormatFloat(floats[in.A], 'g', -1, 64)) //dfvet:allow noalloc program output accumulation, once per print statement
	default:
		r := refs[in.A]
		switch {
		case r == nil:
			rt.output = append(rt.output, "nil") //dfvet:allow noalloc program output accumulation, once per print statement
		case r.Class != nil:
			rt.output = append(rt.output, fmt.Sprintf("%s@%p", r.Class.Name, r)) //dfvet:allow noalloc program output accumulation, once per print statement
		default:
			rt.output = append(rt.output, fmt.Sprintf("array[%d]", len(r.Elems))) //dfvet:allow noalloc program output accumulation, once per print statement
		}
	}
}

// newObject runs OpNew: refs[Dst] = a new object of class Imm, every field
// its kind's zero.
//
//dfvet:noalloc
func (t *vmTask) newObject(fr *vmFrame, in *vm.Instr) {
	cls := t.rt.prog.Classes[in.Imm]
	fields := make([]Value, len(cls.Fields)) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
	for i, k := range cls.FieldKinds {
		fields[i] = zeroOf(k)
	}
	fr.refs[in.Dst] = &Object{Class: cls, Fields: fields} //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
}

// newArray runs OpNewArr: refs[Dst] = a new array of ints[A] elements of
// kind Imm, each its kind's zero, and the per-element charge. fr.pc is past
// the instruction.
//
//dfvet:noalloc
func (t *vmTask) newArray(fr *vmFrame, in *vm.Instr) {
	n := fr.ints[in.A]
	if uint64(n) > maxArrayLen {
		panic(arrayLenErr(t.fname(fr.fc, fr.pc-1), n))
	}
	t.acc += simmach.Time(n) * ir.CostPerElem
	elems := make([]Value, n) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
	if z := zeroOf(ir.ElemKind(in.Imm)); z.Kind != KindNil {
		for i := range elems {
			elems[i] = z
		}
	}
	fr.refs[in.Dst] = &Object{Elems: elems} //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
}

// enter opens an inlined callee at in, an OpCallEnter or OpEnterDescend,
// for exec, which has written its state back. An OpCallEnter zeroes the
// callee's register ranges; an OpEnterDescend's one zeroed register is its
// descent plan's collapse counter. Then come the call-depth check of the
// call the splice replaced and the argument moves, and a
// self-tail-recursive callee's splice (an OpCallEnter's D 1, every
// OpEnterDescend) stands for its frame in the task's collapse total until
// its OpIRetN. An OpEnterDescend then runs its descent head (descend).
//
//dfvet:noalloc
func (t *vmTask) enter(fr *vmFrame, in *vm.Instr) {
	ints, floats, refs := fr.ints, fr.floats, fr.refs
	descent := in.Op == vm.OpEnterDescend
	if descent {
		ints[fr.fc.Descents[in.D].Count] = 0
	} else {
		clear(ints[in.A:in.B])
		clear(floats[in.C:in.Dst])
		clear(refs[in.Imm>>32 : in.Imm&0xffffffff])
	}
	if len(t.frames)+int(t.collapsed) > 10000 {
		t.rt.fail("%s: call stack overflow", fr.fc.Name)
	}
	moveWithin(in.Args, ints, floats, refs)
	if !descent {
		t.collapsed += int64(in.D)
		return
	}
	t.collapsed++
	t.descend(fr, in)
}

// call runs an OpCall at in for exec, which has written its state back:
// the call-depth check, the callee's frame and the argument moves. fr is
// stale after it (the frames slice may reallocate), and exec re-enters its
// outer loop on the callee.
//
//dfvet:noalloc
func (t *vmTask) call(fr *vmFrame, in *vm.Instr) {
	if len(t.frames)+int(t.collapsed) > 10000 {
		t.rt.fail("%s: call stack overflow", fr.fc.Name)
	}
	// The caller's windows stay valid across the push (arena growth
	// copies), but fr does not.
	caller := vmFrame{ints: fr.ints, floats: fr.floats, refs: fr.refs}
	t.push(int(in.Imm), in.Dst, uint8(in.C))
	moveArgs(in.Args, &t.frames[len(t.frames)-1], &caller)
}

// moveArgs runs a call's argument moves from the caller's windows into the
// callee's.
//
//dfvet:noalloc
func moveArgs(moves []vm.ArgMove, callee, caller *vmFrame) {
	for _, mv := range moves {
		switch mv.Bank {
		case vm.BankFloat:
			callee.floats[mv.Dst] = caller.floats[mv.Src]
		case vm.BankRef:
			callee.refs[mv.Dst] = caller.refs[mv.Src]
		default:
			callee.ints[mv.Dst] = caller.ints[mv.Src]
		}
	}
}

// callLinear runs an OpCallLinear at in for exec, which has written its
// state back (fr.pc is past the call, which is charged), and reports
// whether it ran the whole recursion here. It does when the call-depth
// check admits the call and every level below it, the step budget admits
// every instruction of the levels and the base, and the register arenas
// have room above the top frame for the callee's registers. The arms then
// run once each in that room, where the callee's frame would have been
// (evalArm): the base arm, and the recursive arm when there is a level.
// Then come the n pending additions in the code's operand order, the
// charges of every level's instructions, and the caller's result slot.
// Otherwise it is an OpCall (call): the frames then fault or yield where
// they do, so no recursion is ever left half run across dispatches.
//
//dfvet:noalloc
func (t *vmTask) callLinear(fr *vmFrame, in *vm.Instr) bool {
	fc := t.mod.Funcs[in.Imm]
	l := fc.Linear
	n, ok := l.Levels(fr.ints[in.Args[l.KParam].Src], 10000-len(t.frames)-int(t.collapsed))
	ib, fb, rb := len(t.intStack), len(t.floatStack), len(t.refStack)
	ie, fe, re := ib+int(fc.NInts), fb+int(fc.NFloats), rb+int(fc.NRefs)
	if !ok || t.executed > stepBudget-l.BaseLen-n*l.LevelLen ||
		ie > cap(t.intStack) || fe > cap(t.floatStack) || re > cap(t.refStack) {
		t.call(fr, in)
		return false
	}
	callee := vmFrame{ints: t.intStack[ib:ie], floats: t.floatStack[fb:fe], refs: t.refStack[rb:re]}
	moveArgs(in.Args, &callee, fr)
	t.evalArm(&callee, l.Base)
	v := callee.floats[l.BaseVal]
	if n > 0 {
		t.evalArm(&callee, l.Arm)
		x := callee.floats[l.X]
		if l.XFirst {
			for range n {
				v = x + v
			}
		} else {
			for range n {
				v += x
			}
		}
	}
	t.executed += l.BaseLen + n*l.LevelLen
	t.acc += simmach.Time(l.BaseCost) + simmach.Time(n)*simmach.Time(l.LevelCost)
	if in.Dst >= 0 {
		fr.floats[in.Dst] = v
	}
	return true
}

// evalArm runs one arm of a linear-recursion plan (vm.Linear) over the
// registers of fr: straight-line arithmetic, moves and pure extern calls,
// which vm.Compile admitted because none of them can fault.
//
//dfvet:noalloc
func (t *vmTask) evalArm(fr *vmFrame, arm []vm.Instr) {
	ints, floats := fr.ints, fr.floats
	for i := range arm {
		in := &arm[i]
		switch in.Op {
		case vm.OpConstI:
			ints[in.Dst] = in.Imm
		case vm.OpConstF:
			floats[in.Dst] = in.F()
		case vm.OpMovI:
			ints[in.Dst] = ints[in.A]
		case vm.OpMovF:
			floats[in.Dst] = floats[in.A]
		case vm.OpAddI:
			ints[in.Dst] = ints[in.A] + ints[in.B]
		case vm.OpSubI:
			ints[in.Dst] = ints[in.A] - ints[in.B]
		case vm.OpMulI:
			ints[in.Dst] = ints[in.A] * ints[in.B]
		case vm.OpNegI:
			ints[in.Dst] = -ints[in.A]
		case vm.OpAddF:
			floats[in.Dst] = floats[in.A] + floats[in.B]
		case vm.OpSubF:
			floats[in.Dst] = floats[in.A] - floats[in.B]
		case vm.OpMulF:
			floats[in.Dst] = floats[in.A] * floats[in.B]
		case vm.OpDivF:
			floats[in.Dst] = floats[in.A] / floats[in.B]
		case vm.OpNegF:
			floats[in.Dst] = -floats[in.A]
		case vm.OpI2F:
			floats[in.Dst] = float64(ints[in.A])
		case vm.OpCallFFF:
			floats[in.Dst] = t.mod.Ext[in.Imm].FFF(floats[in.A], floats[in.B])
		case vm.OpCallIF:
			floats[in.Dst] = t.mod.Ext[in.Imm].IF(ints[in.A])
		case vm.OpCallExtI, vm.OpCallExtF:
			t.callExt(fr, in)
		default:
			panic(failure("bad opcode %v in a linear arm", in.Op))
		}
	}
}

// tailCall runs a self tail call at in for exec, which has written its
// state back: an OpIKTailCall's folded arithmetic first, then the
// call-depth check, the sequenced argument moves (vm.sequenceMoves), the
// counts, and the restart at E. A restart at pc 0 re-enters the frame's
// function, whose push zeroes what it reads first (the counter, slot
// NInts, is not among it); a splice's callee zeroes nothing.
//
//dfvet:noalloc
func (t *vmTask) tailCall(fr *vmFrame, in *vm.Instr) {
	ints, floats, refs := fr.ints, fr.floats, fr.refs
	if in.Op == vm.OpIKTailCall {
		ints[in.B] = in.Imm
		x := ints[in.A]
		switch vm.Op(in.C) {
		case vm.OpAddI:
			x += in.Imm
		case vm.OpSubI:
			x -= in.Imm
		case vm.OpMulI:
			x *= in.Imm
		case vm.OpDivI: // Imm != 0: fuse never folds a zero divisor
			x /= in.Imm
		default:
			x %= in.Imm
		}
		ints[in.Dst] = x
	}
	if len(t.frames)+int(t.collapsed) > 10000 {
		t.rt.fail("%s: call stack overflow", t.fname(fr.fc, fr.pc-1))
	}
	moveWithin(in.Args, ints, floats, refs)
	if fc := fr.fc; in.E == 0 && (fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs) {
		clear(ints[fc.PInts:fc.NInts])
		clear(floats[fc.PFloats:fc.NFloats])
		clear(refs[fc.PRefs:fc.NRefs])
	}
	ints[in.D]++
	t.collapsed++
	fr.pc = int(in.E)
}

// replay runs the replay of a return at in for exec, which has written its
// state back: the returns of the collapsed tail calls, ints[C] of them, as
// the interpreter unwinds them, each charge its own budget step. The
// dispatch took the first; the return itself takes one step more. A replay
// the budget cannot finish leaves fr.pc on the return, to resume there in
// the next dispatch, and reports false.
//
//dfvet:noalloc
func (t *vmTask) replay(fr *vmFrame, in *vm.Instr) bool {
	ints := fr.ints
	n := ints[in.C]
	if left := int64(stepBudget - t.executed); n > left {
		t.executed = stepBudget
		t.acc += simmach.Time(left) * simmach.Time(in.Cost)
		ints[in.C] = n - 1 - left
		t.collapsed -= 1 + left
		fr.pc--
		return false
	}
	t.executed += int(n)
	t.acc += simmach.Time(n) * simmach.Time(in.Cost)
	ints[in.C] = 0
	t.collapsed -= n
	return true
}

// descend runs an OpDescend head for exec, which has written its state
// back (fr.pc is past the head's group) and reloads it after. The head is
// charged. Whole levels (g2, g3, an arm with its self tail call, and the
// next head) run here with lo, hi and k in locals: while the budget admits
// a level whole, the depth check admits its tail call and the head's base
// case does not hold. The bank is written back once, each arm's two
// registers as of the last level that took that arm. Then the head runs
// as its own group (OpLeIKBr's code) on the final lo and hi, so a descent
// that goes on leaves fr.pc on g2 and the ordinary groups take over.
//
//dfvet:noalloc
func (t *vmTask) descend(fr *vmFrame, in *vm.Instr) {
	code, ints := fr.fc.Code, fr.ints
	executed := t.executed
	d := &fr.fc.Descents[in.D]
	depth := 10001 - len(t.frames) - int(t.collapsed)
	lo, hi, k := ints[d.Lo], ints[d.Hi], ints[d.K]
	g3 := &code[d.G3]
	k2 := int64(int32(g3.Imm))
	var sum, r, took int64 // took has bit w set once arm w ran
	var q [2]int64         // arm w's quotient as of its last level
	levels := 0
	for ; levels < depth && executed <= stepBudget-d.Len && hi-lo > in.Imm; levels++ {
		executed += d.Len
		sum = lo + hi
		mid := divPow2(sum, d.MidShift)
		r = modPow2(k, d.ParityShift)
		w := b2w(r == k2) // the parity word, which picks the arm
		k = divPow2(k, d.KShift)
		q[w&1] = k
		took |= w + 1
		m := -(w ^ d.LoWord) // all ones when mid moves into hi
		hi ^= (hi ^ mid) & m
		lo ^= (lo ^ mid) &^ m
	}
	if levels > 0 {
		t.acc += simmach.Time(levels) * simmach.Time(d.Cost)
		ints[d.Count] += int64(levels)
		t.collapsed += int64(levels)
		if censusOn {
			censusLevels(levels)
		}
		g2 := &code[d.G2]
		ints[d.Lo], ints[d.Hi], ints[d.K] = lo, hi, k
		ints[g2.Dst], ints[g2.C] = sum, g2.Imm
		ints[g2.D] = divPow2(sum, d.MidShift)
		ints[g2.E] = ints[g2.D]
		ints[g3.E], ints[g3.A], ints[g3.B] = g3.Imm>>32, r, k2
		ints[g3.Dst] = b2w(r == k2)
		for w, at := range d.Arms {
			if took>>w&1 != 0 {
				a := &code[at]
				ints[a.B], ints[a.Dst] = a.Imm, q[w]
			}
		}
	}
	t.executed = executed
	ints[in.A] = ints[d.Hi] - ints[d.Lo]
	ints[in.B] = in.Imm
	c := ints[in.A] <= in.Imm
	ints[in.Dst] = b2w(c)
	if !c {
		fr.pc = int(in.C)
	}
}

// top is the current frame. exec calls it out of line: inlined, the
// compiler keeps the frames' base and the frame's offset in two registers
// for every access through fr.
//
//go:noinline
func (t *vmTask) top() *vmFrame { return &t.frames[len(t.frames)-1] }

// moveWithin runs a move plan whose sources and destinations are slots of
// one frame, in order: a tail call's sequenced plan (vm.sequenceMoves), or
// an inlined callee's entry.
//
//dfvet:noalloc
func moveWithin(moves []vm.ArgMove, ints []int64, floats []float64, refs []*Object) {
	for _, mv := range moves {
		switch mv.Bank {
		case vm.BankFloat:
			floats[mv.Dst] = floats[mv.Src]
		case vm.BankRef:
			refs[mv.Dst] = refs[mv.Src]
		default:
			ints[mv.Dst] = ints[mv.Src]
		}
	}
}

// iretN delivers an OpIRetN's value to the caller's slot. A void return
// writes the zero of the destination's bank, as a frame's return does.
//
//dfvet:noalloc
func iretN(in *vm.Instr, ints []int64, floats []float64, refs []*Object) {
	if in.Dst < 0 {
		return
	}
	// The value's slot is the callee's, never the caller's Dst.
	switch in.B {
	case vm.BankFloat:
		floats[in.Dst] = 0
		if in.A >= 0 {
			floats[in.Dst] = floats[in.A]
		}
	case vm.BankRef:
		refs[in.Dst] = nil
		if in.A >= 0 {
			refs[in.Dst] = refs[in.A]
		}
	default:
		ints[in.Dst] = 0
		if in.A >= 0 {
			ints[in.Dst] = ints[in.A]
		}
	}
}

// vref fetches a non-nil object from the instruction's A ref slot. It is
// small enough to inline, and its fault panics in place (exec's register
// rule): the access is the group of length back that ends before slot next
// of fc, and the group's head faults.
//
//dfvet:noalloc
func (t *vmTask) vref(in *vm.Instr, refs []*Object, fc *vm.FuncCode, next, back int) *Object {
	o := refs[in.A]
	if o == nil {
		panic(t.nilDeref(fc, next, back))
	}
	return o
}

// The fault helpers below build the error of a fault in exec, which panics
// with it at the fault site. Each takes exec's pc after the advance (next)
// and finds the faulting slot itself: exec computing next-1 would have the
// compiler rebuild it from the dispatch's pc before the advance, keeping
// that alive in a register or a stack slot. They stay out of line for the
// same reason.

// nilDeref is the fault of a field or element access through a nil
// reference by the group of length back before slot next. The interpreter
// reports it with the already-incremented pc, so the message pc is the
// group head's original pc plus one.
//
//go:noinline
func (t *vmTask) nilDeref(fc *vm.FuncCode, next, back int) runtimeErr {
	at := next - back
	return failure("%s: pc %d: nil dereference", t.fname(fc, at), fc.Src[at].PC+1)
}

// vmFault is the fault what of the instruction before slot next of fc,
// named for the function the instruction came from.
//
//go:noinline
func (t *vmTask) vmFault(fc *vm.FuncCode, next int, what string) runtimeErr {
	return failure("%s: %s", t.fname(fc, next-1), what)
}

// indexFault is the fault of an element access at index i of an array of
// n elements by the instruction before slot next of fc.
//
//go:noinline
func (t *vmTask) indexFault(fc *vm.FuncCode, next int, i int64, n int) runtimeErr {
	return failure("%s: index %d out of range [0,%d)", t.fname(fc, next-1), i, n)
}

// fname is the function slot at of fc came from, for fault messages:
// after inline expansion this can differ from the frame's function.
func (t *vmTask) fname(fc *vm.FuncCode, at int) string {
	return t.mod.Funcs[fc.Src[at].Fn].Name
}

// divPow2 is x / 2^s for s < 63, as Go's truncating division: an
// arithmetic shift of x biased by 2^s-1 when x is negative.
func divPow2(x int64, s uint8) int64 {
	return (x + x>>63&(1<<(s&63)-1)) >> (s & 63)
}

// modPow2 is x % 2^s for s < 63, as Go's remainder: it takes the sign of x.
func modPow2(x int64, s uint8) int64 {
	m := int64(1)<<(s&63) - 1
	bias := x >> 63 & m
	return (x+bias)&m - bias
}

func b2w(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
