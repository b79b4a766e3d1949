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
// next level whole, and leaves a level it cannot to the groups. Its sync
// instructions are the unconditional acquire and release: vm.Compile
// rejects conditional sites, whose programs Run hands to the oracle.
//
// The loop is two-level so that the dispatch state stays in registers.
// The outer loop runs once per activation: it loads the frame, its code
// and its three bank windows. Inside the inner loop those are invariant
// and only pc, executed and acc are carried from one dispatch to the
// next; anything that changes the current frame (call, return) writes its
// state back and continues the outer loop instead of reassigning them.
// Every exit path writes pc/executed/acc back before returning.
//
//dfvet:noalloc
func (t *vmTask) exec(p *simmach.Proc) (simmach.Status, bool) {
	rt := t.rt
	dyn := rt.opts.Policy == PolicyDynamic
	ahead := rt.releaseAhead
	executed := t.executed
	acc := t.acc
	if censusOn {
		censusEntry()
	}

frames:
	for {
		fr := &t.frames[len(t.frames)-1]
		code := fr.fc.Code
		pc := fr.pc
		ints, floats, refs := fr.ints, fr.floats, fr.refs

		for executed < stepBudget {
			if uint(pc) >= uint(len(code)) {
				rt.fail("%s: fell off end of code", fr.fc.Name)
			}
			in := &code[pc]
			if in.Len > 1 && executed > stepBudget-int(in.Len) {
				// Not enough budget for the whole fused group: execute the
				// plain instructions so the dispatch boundary lands exactly
				// where the interpreter's per-instruction count puts it.
				in = &fr.fc.Plain[pc]
			}
			if censusOn {
				censusOp(t.mod, fr.fc, pc, in)
			}

			if in.Op >= vm.OpSyncStart {
				if in.Op == vm.OpParallel {
					if !t.isMain || t.sr != nil {
						rt.fail("%s: nested parallel section", fr.fc.Name)
					}
					t.acc = acc
					t.executed = executed
					t.flush(p)
					if executed > 0 {
						fr.pc = pc
						return simmach.Ready, false
					}
					fr.pc = pc + 1
					t.enterSection(p, fr, in)
					return simmach.Ready, false
				}
				// Acquire/release family.
				isAcq := in.Op == vm.OpAcquire
				if executed > 0 {
					// A release with no waiter queued is taken here instead of
					// at the start of the dispatch it would yield for, which
					// the machine counts as skipped (Proc.ReleaseAhead). That
					// dispatch would pass the step-budget check and begin with
					// an empty budget.
					if ahead && !isAcq && refs[in.A] != nil && rt.m.Steps() < rt.opts.MaxSteps {
						if lock := refs[in.A].Lock(rt.m); !lock.Queued() {
							t.acc = acc
							t.flush(p)
							acc = 0
							at := p.Now()
							if dyn {
								p.Advance(rt.opts.InstrumentationCost)
							}
							p.ReleaseAhead(lock, at)
							pc++
							executed = 1
							continue
						}
					}
					fr.pc = pc
					t.executed = executed
					t.acc = acc
					t.flush(p)
					return simmach.Ready, false
				}
				obj := refs[in.A]
				if obj == nil {
					rt.fail("%s: pc %d: nil dereference", t.fname(fr.fc, pc), fr.fc.Src[pc].PC)
				}
				lock := obj.Lock(rt.m)
				t.acc = acc
				t.flush(p)
				acc = 0
				if dyn {
					p.Advance(rt.opts.InstrumentationCost)
				}
				pc++
				executed++
				if !isAcq {
					p.Release(lock)
					continue
				}
				if !p.Acquire(lock) {
					fr.pc = pc
					t.executed = executed
					t.acc = acc
					return simmach.Blocked, false
				}
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
				ints[in.Dst] = rt.paramVals[in.Imm]

			case vm.OpAddI:
				ints[in.Dst] = ints[in.A] + ints[in.B]
			case vm.OpSubI:
				ints[in.Dst] = ints[in.A] - ints[in.B]
			case vm.OpMulI:
				ints[in.Dst] = ints[in.A] * ints[in.B]
			case vm.OpDivI:
				if ints[in.B] == 0 {
					rt.fail("%s: integer division by zero", t.fname(fr.fc, pc-1))
				}
				ints[in.Dst] = ints[in.A] / ints[in.B]
			case vm.OpModI:
				if ints[in.B] == 0 {
					rt.fail("%s: integer modulo by zero", t.fname(fr.fc, pc-1))
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
				if len(t.frames)+int(t.collapsed) > 10000 {
					rt.fail("%s: call stack overflow", fr.fc.Name)
				}
				// Caller windows stay valid across the push (arena growth
				// copies), but fr does not: the frames slice may reallocate.
				fr.pc = pc
				t.push(int(in.Imm), in.Dst, uint8(in.C))
				nf := &t.frames[len(t.frames)-1]
				for _, mv := range in.Args {
					switch mv.Bank {
					case vm.BankFloat:
						nf.floats[mv.Dst] = floats[mv.Src]
					case vm.BankRef:
						nf.refs[mv.Dst] = refs[mv.Src]
					default:
						nf.ints[mv.Dst] = ints[mv.Src]
					}
				}
				continue frames

			case vm.OpIKTailCall:
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
				fallthrough
			case vm.OpTailCall:
				if len(t.frames)+int(t.collapsed) > 10000 {
					rt.fail("%s: call stack overflow", t.fname(fr.fc, pc-1))
				}
				// The argument plan is sequenced at compile time
				// (vm.sequenceMoves): in-order copies within the frame.
				for _, mv := range in.Args {
					switch mv.Bank {
					case vm.BankFloat:
						floats[mv.Dst] = floats[mv.Src]
					case vm.BankRef:
						refs[mv.Dst] = refs[mv.Src]
					default:
						ints[mv.Dst] = ints[mv.Src]
					}
				}
				// A restart at pc 0 re-enters the frame's function, whose
				// push zeroes what it reads first; a splice's callee zeroes
				// nothing.
				if fc := fr.fc; in.E == 0 && (fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs) {
					clear(ints[fc.PInts:fc.NInts])
					clear(floats[fc.PFloats:fc.NFloats])
					clear(refs[fc.PRefs:fc.NRefs])
				}
				ints[in.D]++
				t.collapsed++
				pc = int(in.E)

			case vm.OpCallExtI, vm.OpCallExtF:
				fn := rt.prep.extFns[in.Imm]
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
				acc += extra
				if in.Dst >= 0 {
					if in.Op == vm.OpCallExtF {
						floats[in.Dst] = v.F
					} else {
						ints[in.Dst] = v.I
					}
				}
			case vm.OpCallFFF:
				floats[in.Dst] = t.mod.Ext[in.Imm].FFF(floats[in.A], floats[in.B])
			case vm.OpCallIF:
				floats[in.Dst] = t.mod.Ext[in.Imm].IF(ints[in.A])
			case vm.OpCallWork:
				n := ints[in.A]
				ints[in.Dst] = 0
				acc += workCharge(n)
			case vm.OpWorkParam:
				n := rt.paramVals[in.Imm]
				ints[in.Dst] = n
				ints[in.B] = 0
				acc += workCharge(n)

			case vm.OpRetI, vm.OpRetF, vm.OpRetR, vm.OpRetVoid, vm.OpIRetN:
				if n := ints[in.C]; n > 0 {
					// Replay the collapsed tail calls' returns (ints[C]
					// counts them): the interpreter unwinds these as separate
					// instructions, so each charge is its own budget step.
					// This dispatch took the first; the return itself takes
					// one step more. A replay the budget cannot finish
					// resumes here in the next dispatch.
					if left := int64(stepBudget - executed); n > left {
						executed = stepBudget
						acc += simmach.Time(left) * simmach.Time(in.Cost)
						ints[in.C] = n - 1 - left
						t.collapsed -= 1 + left
						pc--
						continue
					}
					executed += int(n)
					acc += simmach.Time(n) * simmach.Time(in.Cost)
					ints[in.C] = 0
					t.collapsed -= n
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
					t.executed = executed
					t.acc = acc
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
				cls := rt.prog.Classes[in.Imm]
				fields := make([]Value, len(cls.Fields)) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
				for i, k := range cls.FieldKinds {
					fields[i] = zeroOf(k)
				}
				refs[in.Dst] = &Object{Class: cls, Fields: fields} //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
			case vm.OpNewArr:
				n := ints[in.A]
				if uint64(n) > maxArrayLen {
					rt.badArrayLen(t.fname(fr.fc, pc-1), n)
				}
				acc += simmach.Time(n) * ir.CostPerElem
				elems := make([]Value, n) //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate
				if z := zeroOf(ir.ElemKind(in.Imm)); z.Kind != KindNil {
					for i := range elems {
						elems[i] = z
					}
				}
				refs[in.Dst] = &Object{Elems: elems} //dfvet:allow noalloc the simulated program's own new: an OBL allocation must allocate

			case vm.OpLoadFieldI:
				obj := t.vref(in, refs, fr.fc, pc-1)
				ints[in.Dst] = obj.Fields[in.Imm].I
			case vm.OpLoadFieldF:
				obj := t.vref(in, refs, fr.fc, pc-1)
				floats[in.Dst] = obj.Fields[in.Imm].F
			case vm.OpLoadFieldR:
				obj := t.vref(in, refs, fr.fc, pc-1)
				refs[in.Dst] = obj.Fields[in.Imm].Ref
			case vm.OpStoreFieldI, vm.OpStoreFieldB, vm.OpStoreFieldF, vm.OpStoreFieldR:
				obj := t.vref(in, refs, fr.fc, pc-1)
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
				obj := t.vref(in, refs, fr.fc, pc-1)
				i := ints[in.B]
				if i < 0 || i >= int64(len(obj.Elems)) {
					rt.fail("%s: index %d out of range [0,%d)", t.fname(fr.fc, pc-1), i, len(obj.Elems))
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
				obj := t.vref(in, refs, fr.fc, pc-1)
				i := ints[in.B]
				if i < 0 || i >= int64(len(obj.Elems)) {
					rt.fail("%s: index %d out of range [0,%d)", t.fname(fr.fc, pc-1), i, len(obj.Elems))
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
				obj := t.vref(in, refs, fr.fc, pc-1)
				ints[in.Dst] = int64(len(obj.Elems))

			case vm.OpPrintI:
				rt.output = append(rt.output, strconv.FormatInt(ints[in.A], 10)) //dfvet:allow noalloc program output accumulation, once per print statement
			case vm.OpPrintB:
				rt.output = append(rt.output, strconv.FormatBool(ints[in.A] != 0)) //dfvet:allow noalloc program output accumulation, once per print statement
			case vm.OpPrintF:
				rt.output = append(rt.output, strconv.FormatFloat(floats[in.A], 'g', -1, 64)) //dfvet:allow noalloc program output accumulation, once per print statement
			case vm.OpPrintR:
				r := refs[in.A]
				switch {
				case r == nil:
					rt.output = append(rt.output, "nil") //dfvet:allow noalloc program output accumulation, once per print statement
				case r.Class != nil:
					rt.output = append(rt.output, fmt.Sprintf("%s@%p", r.Class.Name, r)) //dfvet:allow noalloc program output accumulation, once per print statement
				default:
					rt.output = append(rt.output, fmt.Sprintf("array[%d]", len(r.Elems))) //dfvet:allow noalloc program output accumulation, once per print statement
				}

			case vm.OpCallEnter:
				// Open an inlined callee: zero its register ranges, then the
				// call-depth check and the argument moves (enter). The
				// linkage charge is in in.Cost.
				clear(ints[in.A:in.B])
				clear(floats[in.C:in.Dst])
				clear(refs[in.Imm>>32 : in.Imm&0xffffffff])
				t.enter(fr.fc, in.Args, ints, floats, refs)
				t.collapsed += int64(in.D)
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
			case vm.OpSubIK:
				ints[in.B] = in.Imm
				ints[in.Dst] = ints[in.A] - in.Imm
			case vm.OpMulIK:
				ints[in.B] = in.Imm
				ints[in.Dst] = ints[in.A] * in.Imm
			case vm.OpEnterDescend:
				// A self-tail-recursive splice opens, and its body's descent
				// head runs: the entry's moves ride in Args, and the one
				// register it zeroes is the plan's collapse counter.
				ints[fr.fc.Descents[in.D].Count] = 0
				t.enter(fr.fc, in.Args, ints, floats, refs)
				t.collapsed++
				fallthrough
			case vm.OpDescend:
				// The head is charged. Whole levels (g2, g3, an arm with its
				// self tail call, and the next head) run here with lo, hi and
				// k in locals: while the budget admits a level whole, the
				// depth check admits its tail call and the head's base case
				// does not hold. The bank is written back once, each arm's
				// two registers as of the last level that took that arm.
				// Then the head runs as its own group on the final lo and hi,
				// so a descent that goes on leaves pc on g2 and the ordinary
				// groups take over.
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
					acc += simmach.Time(levels) * simmach.Time(d.Cost)
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
				ints[in.A] = ints[d.Hi] - ints[d.Lo]
				fallthrough
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
				obj := t.vref(in, refs, fr.fc, pc-3)
				floats[in.D] = obj.Fields[in.Imm].F
				floats[in.Dst] = floats[in.B] + floats[in.C]
				obj.Fields[in.Imm] = Value{Kind: KindFloat, F: floats[in.Dst]}

			default:
				rt.fail("%s: bad opcode %v", fr.fc.Name, in.Op)
			}
		}
		fr.pc = pc
		t.executed = executed
		t.acc = acc
		t.flush(p)
		return simmach.Ready, false
	}
}

// enter opens an inlined callee in a frame of fc: the call-depth check of
// the call the splice replaced, then the argument moves. A
// self-tail-recursive callee's splice then stands for its frame in the
// task's collapse total until its OpIRetN.
func (t *vmTask) enter(fc *vm.FuncCode, moves []vm.ArgMove, ints []int64, floats []float64, refs []*Object) {
	if len(t.frames)+int(t.collapsed) > 10000 {
		t.rt.fail("%s: call stack overflow", fc.Name)
	}
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

// vref fetches a non-nil object from the instruction's A ref slot; at is
// the instruction's slot in fc (a fused group's head). It is small enough
// to inline, so the fault path is the only call.
func (t *vmTask) vref(in *vm.Instr, refs []*Object, fc *vm.FuncCode, at int) *Object {
	o := refs[in.A]
	if o == nil {
		t.nilDeref(fc, at)
	}
	return o
}

// nilDeref faults a field or element access through a nil reference. The
// interpreter reports it with the already-incremented pc, so the message
// pc is the instruction's original pc plus one.
func (t *vmTask) nilDeref(fc *vm.FuncCode, at int) {
	t.rt.fail("%s: pc %d: nil dereference", t.fname(fc, at), fc.Src[at].PC+1)
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
