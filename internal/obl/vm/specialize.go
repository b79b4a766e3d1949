package vm

// The two specialization passes Compile runs over every function after
// the 1:1 translation. Both are static: the module is a function of the
// program alone.
//
//   - Inline expansion: calls to small leaf callees are spliced into the
//     caller as OpCallEnter + remapped body + OpIRet*, with the callee's
//     registers living in fresh ranges appended to the caller's frame.
//     Charges and instruction counts are preserved one-for-one
//     (OpCallEnter charges what OpCall did and zeroes the ranges the push
//     would have zeroed; OpIRet* charge what OpRet did), so dispatch
//     boundaries do not move. A leaf whose only calls are self tail calls
//     is spliced too: its tail calls jump back to the splice's body on a
//     collapse counter in the caller's frame, and its OpIRetN returns
//     replay the counted returns as OpRet* replays a frame's.
//   - Superinstruction fusion: the groups the dispatch census of the
//     benchmark workloads dispatches, and no others, collapse into single
//     dispatches: lt.i+br, the three-instruction serial-loop latch
//     (const 1; add; jump), integer constants folded into add, mul
//     and le.i+brfalse, and the census groups (censusGroup). The per-slot
//     Plain stream keeps the unfused instructions so jumps into a group
//     and step-budget boundaries behave exactly as unfused code. A
//     function that is one level of a binary descent closed by a self tail
//     call then gets the loop superinstruction OpDescend at its head and a
//     register plan (descentPlan), and so does the body head of every
//     splice of it, fused with the splice's entry: one dispatch runs as
//     many whole levels as the step budget admits with lo, hi and k in
//     host registers, and a level the budget cannot admit whole runs as
//     the ordinary groups.
//
// Neither changes observable behaviour; they only reduce dispatches and
// memory traffic per simulated instruction.

import (
	"math/bits"
	"slices"
)

const (
	// maxInlineLen bounds the callee size for inline expansion.
	maxInlineLen = 48
	// maxFuncGrowth bounds a function's post-inline code size.
	maxFuncGrowth = 4096
)

// inlinable reports whether a function body can be spliced into a
// caller, and whether it is self-tail-recursive: no calls of any kind but
// self tail calls, no section entry, and no way for the pc to run off the
// end of the body (so execution always leaves the splice through a
// return, never by falling into the caller's next instruction). A
// self-tail-recursive body must also zero no bank, since its tail calls
// restart the splice over the registers they leave. Any other body must
// return a float or nothing: no census section calls a leaf that returns
// an int or a ref, so such a leaf stays a call rather than have an inline
// return of its own.
func inlinable(fc *FuncCode) (ok, tail bool) {
	n := len(fc.Plain)
	if n == 0 {
		return false, false
	}
	switch fc.Plain[n-1].Op {
	case OpRetI, OpRetF, OpRetR, OpRetVoid, OpJump:
	default:
		return false, false
	}
	valued := false // an int or ref return
	for pc := range fc.Plain {
		in := &fc.Plain[pc]
		switch in.Op {
		case OpTailCall:
			tail = true
		case OpRetI, OpRetR:
			valued = true
		case OpCall, OpCallLinear, OpCallEnter, OpParallel,
			OpIRetN, OpIRetF, OpIRetVoid:
			return false, false
		case OpJump, OpBrFalse:
			if int(in.Imm) >= n {
				return false, false
			}
		}
	}
	if tail && (fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs) || !tail && valued {
		return false, false
	}
	return true, tail
}

// inlineExpand splices every small leaf callee into fc's plain stream,
// growing fc's frame by each splice's register ranges. Leaf callees hold
// no calls but self tail calls, so their own streams are never expanded:
// the pass reads the same callee code whichever function it visits first.
//
// A splice's int range holds the callee's collapse counter too, which
// OpCallEnter zeroes for a self-tail-recursive callee. Inside the splice a
// tail call is the in-frame argument moves, a count and a jump back to the
// body's first slot, and every return is an OpIRetN that replays the
// counted returns. The splice stands for the callee's frame: OpCallEnter
// counts it in the task's collapse total, which every call-depth check
// reads, and OpIRetN takes it out again.
func (m *Module) inlineExpand(fc *FuncCode) {
	type site struct {
		callee *FuncCode
		tail   bool // self-tail-recursive
	}
	src := fc.Plain
	splice := make(map[int]site)
	grow := 0
	for pc := range src {
		in := &src[pc]
		if in.Op != OpCall || int(in.Imm) == fc.ID {
			continue
		}
		callee := m.Funcs[in.Imm]
		ok, tail := inlinable(callee)
		if !ok || len(callee.Plain) > maxInlineLen {
			continue
		}
		if len(src)+grow+len(callee.Plain) > maxFuncGrowth {
			break
		}
		splice[pc] = site{callee, tail}
		grow += len(callee.Plain)
	}
	if len(splice) == 0 {
		return
	}

	newPC := make([]int32, len(src)+1)
	out := make([]Instr, 0, len(src)+grow)
	pos := make([]SrcPos, 0, len(src)+grow) // out's fc.Src
	var fixups []int                        // out indices of caller jumps whose targets need remapping
	for pc := range src {
		newPC[pc] = int32(len(out))
		in := src[pc]
		pos = append(pos, fc.Src[pc])
		sp, ok := splice[pc]
		if !ok {
			if in.Op == OpJump || in.Op == OpBrFalse {
				fixups = append(fixups, len(out))
			}
			out = append(out, in)
			continue
		}

		// Fresh register ranges for this splice, the callee's collapse
		// counter included (a leaf's frame holds nothing else).
		callee := sp.callee
		ib, fb, rb := fc.FrameInts, fc.FrameFloats, fc.FrameRefs
		fc.FrameInts += callee.FrameInts
		fc.FrameFloats += callee.NFloats
		fc.FrameRefs += callee.NRefs
		base := [4]int32{0, ib, fb, rb} // indexed by bank+1, as opRegs is
		moves := make([]ArgMove, len(in.Args))
		for i, mv := range in.Args {
			moves[i] = ArgMove{Bank: mv.Bank, Src: mv.Src, Dst: mv.Dst + base[mv.Bank+1]}
		}
		// The zeroing ranges are empty for banks the callee never reads
		// before writing (see FuncCode.ZeroInts).
		var zi, zf, zr int32
		if callee.ZeroInts {
			zi = callee.NInts
		}
		if callee.ZeroFloats {
			zf = callee.NFloats
		}
		if callee.ZeroRefs {
			zr = callee.NRefs
		}
		enter := Instr{
			Op: OpCallEnter, Len: 1, Cost: in.Cost,
			A: ib, B: ib + zi, C: fb, Dst: fb + zf,
			Imm:  int64(rb)<<32 | int64(rb+zr),
			Args: moves,
		}
		if sp.tail {
			// The callee zeroes nothing: the int range is its counter.
			enter.A, enter.B, enter.D = ib+callee.NInts, ib+callee.NInts+1, 1
		}
		out = append(out, enter)

		bodyStart := int32(len(out))
		end := int64(bodyStart) + int64(len(callee.Plain))
		pos = append(pos, callee.Src...)
		for _, cin := range callee.Plain {
			switch cin.Op {
			case OpRetI, OpRetF, OpRetR, OpRetVoid:
				out = append(out, iret(cin, in, &base, sp.tail, end))
			case OpTailCall:
				amoves := make([]ArgMove, len(cin.Args))
				for i, mv := range cin.Args {
					amoves[i] = ArgMove{Bank: mv.Bank, Src: mv.Src + base[mv.Bank+1], Dst: mv.Dst + base[mv.Bank+1]}
				}
				cin.Args, cin.D, cin.E = amoves, cin.D+ib, bodyStart
				out = append(out, cin)
			default:
				remapSlots(&cin, &base)
				if cin.Op == OpJump || cin.Op == OpBrFalse {
					cin.Imm += int64(bodyStart)
				}
				if len(cin.Args) > 0 {
					amoves := make([]ArgMove, len(cin.Args))
					for i, mv := range cin.Args {
						amoves[i] = ArgMove{Bank: mv.Bank, Src: mv.Src + base[mv.Bank+1], Dst: mv.Dst}
					}
					cin.Args = amoves
				}
				out = append(out, cin)
			}
		}
	}
	newPC[len(src)] = int32(len(out))
	for _, i := range fixups {
		out[i].Imm = int64(newPC[out[i].Imm])
	}
	fc.Plain, fc.Src = out, pos
}

// iret is a spliced callee's return ret for the call site call: it writes
// the caller's result slot and jumps to end. A self-tail-recursive
// callee's return replays the splice's collapse counter first.
func iret(ret, call Instr, base *[4]int32, tail bool, end int64) Instr {
	o := Instr{Len: 1, Cost: ret.Cost, Dst: call.Dst, Imm: end}
	if tail {
		o.Op, o.A, o.B, o.C = OpIRetN, -1, call.C, ret.C+base[BankInt+1]
		if ret.Op != OpRetVoid {
			o.A = ret.A + base[opRegs[ret.Op].a]
		}
		return o
	}
	switch {
	case ret.Op == OpRetVoid:
		o.Op, o.B = OpIRetVoid, call.C
	case call.Dst < 0: // result discarded at the call site
		o.Op = OpIRetVoid
	default: // an OpRetF: inlinable splices no other valued return
		o.Op, o.A = OpIRetF, ret.A+base[BankFloat+1]
	}
	return o
}

// remapSlots adds a splice's bank bases (indexed by bank+1; base[0] is 0)
// to every register-slot field of an inlined instruction, as opRegs
// describes them.
func remapSlots(o *Instr, base *[4]int32) {
	r := opRegs[o.Op]
	o.Dst += base[r.dst]
	o.A += base[r.a]
	o.B += base[r.b]
	o.C += base[r.c]
}

// fuse builds fc.Code from the plain stream: every slot where a
// superinstruction pattern starts outside the group before it becomes the
// group's head. Group tails keep their plain copies in Code too, so jumps
// that land inside a group execute unfused. Where descentPlan accepts a
// head — pc 0, or the first body slot of a self-tail-recursive splice —
// its four slots become one OpDescend and stay plain behind it, and a
// splice's OpCallEnter fuses with the head into OpEnterDescend.
func (fc *FuncCode) fuse() {
	code := make([]Instr, len(fc.Plain))
	copy(code, fc.Plain)
	heads := []int32{0}
	for pc := 0; pc+1 < len(code); pc++ {
		if in := &fc.Plain[pc]; in.Op == OpCallEnter && in.D != 0 {
			heads = append(heads, int32(pc+1))
		}
		if g, ok := fuseAt(fc.Plain[pc:]); ok {
			code[pc] = g
			pc += int(g.Len) - 1
		}
	}
	fc.Code = code
	for _, h := range heads {
		head, d := descentPlan(fc, h)
		if d == nil {
			continue
		}
		head.D = int32(len(fc.Descents))
		fc.Descents = append(fc.Descents, *d)
		copy(code[h+1:h+int32(head.Len)], fc.Plain[h+1:])
		code[h] = head
		if h > 0 {
			g := head
			enter := &fc.Plain[h-1]
			g.Op, g.Len, g.Cost, g.Args = OpEnterDescend, head.Len+1, head.Cost+enter.Cost, enter.Args
			code[h-1] = g
		}
	}
}

// Descent is OpDescend's register plan, built once per head by
// descentPlan: what the engine needs to run whole levels of a binary
// descent with lo, hi and k in host registers. The other registers a level
// writes are read from the groups' own slots when the bank is written
// back.
type Descent struct {
	// Lo, Hi and K are the int slots of lo, hi and k.
	Lo, Hi, K int32
	// Count is the int slot of the collapse counter the levels add to:
	// the frame's for a head at pc 0, the splice's for a splice head.
	Count int32
	// G2 and G3 are the pcs of the add.i+div.ik+mov.i group and of the
	// parity group; Arms[w] is the pc of the arm parity word w selects
	// (Arms[1] is the fallthrough arm).
	G2, G3 int32
	Arms   [2]int32
	// LoWord is the parity word whose arm moves mid into Lo; the other
	// arm moves it into Hi.
	LoWord int64
	// MidShift, ParityShift and KShift are log2 of g2's divisor, of the
	// parity modulus and of the arms' divisor.
	MidShift, ParityShift, KShift uint8
	// Len and Cost are one level's instructions and virtual cost: g2, g3,
	// an arm and the next head.
	Len  int
	Cost int64
}

// descentPlan returns the OpDescend head at pc h and its register plan
// when the code from h is one level of a binary descent closed by a self
// tail call back to h, and a nil plan otherwise. The shape: the slots at
// h sub.i t,hi,lo; const.i K; le.i on t and K; brfalse, whose not-taken
// target is add.i+div.ik+mov.i on lo and hi, then mod.ik+eq.ik+br on k,
// whose two arms are arith.ik+tailcall groups of one Len, Cost, divisor
// dividing k and collapse counter, each moving its quotient into k and
// g2's mid into a different one of lo and hi. Every divisor is a power of
// two, the descent re-zeroes no bank (a frame's tail calls re-zero the
// banks the function zeroes; a splice's callee zeroes none), and the
// slots the level writes are distinct, so the engine may keep lo, hi and k
// in locals and write every other register once, when it leaves. The
// head's D is left for fuse, which numbers the plans.
func descentPlan(fc *FuncCode, h int32) (Instr, *Descent) {
	p, c := fc.Plain, fc.Code
	if len(p) < int(h)+4 || p[h].Op != OpSubI || !cmpConstBr(p[h+1:], OpLeI) || p[h+2].A != p[h].Dst {
		return Instr{}, nil
	}
	head := Instr{Op: OpDescend, Len: 4, Dst: p[h+2].Dst, A: p[h+2].A, B: p[h+2].B,
		C: int32(p[h+3].Imm), Imm: p[h+1].Imm}
	for _, in := range p[h : h+4] {
		head.Cost += in.Cost
	}
	d := &Descent{Lo: p[h].B, Hi: p[h].A, G2: head.C}
	if int(d.G2) >= len(c) {
		return Instr{}, nil
	}
	g2 := &c[d.G2]
	if g2.Op != OpAddDivIKMov || !pow2(g2.Imm) || !(g2.A == d.Lo && g2.B == d.Hi || g2.A == d.Hi && g2.B == d.Lo) {
		return Instr{}, nil
	}
	d.G3 = d.G2 + int32(g2.Len)
	if int(d.G3) >= len(c) {
		return Instr{}, nil
	}
	g3 := &c[d.G3]
	if g3.Op != OpModIKEqIKBr || !pow2(g3.Imm>>32) {
		return Instr{}, nil
	}
	d.K = g3.D
	d.Arms = [2]int32{g3.C, d.G3 + int32(g3.Len)}
	// Every slot a level writes; the engine's write-back needs them
	// distinct.
	written := []int32{d.Lo, d.Hi, d.K, head.A, head.B, head.Dst,
		g2.Dst, g2.C, g2.D, g2.E, g3.E, g3.A, g3.B, g3.Dst}
	into := [2]int32{-1, -1} // the slot each arm moves mid into
	for w, pc := range d.Arms {
		if int(pc) >= len(c) {
			return Instr{}, nil
		}
		a := &c[pc]
		if a.Op != OpIKTailCall || Op(a.C) != OpDivI || !pow2(a.Imm) || a.A != d.K || a.E != h || len(a.Args) != 2 {
			return Instr{}, nil
		}
		if b := &c[d.Arms[0]]; a.Len != b.Len || a.Cost != b.Cost || a.Imm != b.Imm || a.D != b.D {
			return Instr{}, nil
		}
		toK := false
		for _, mv := range a.Args {
			switch {
			case mv.Bank != BankInt:
				return Instr{}, nil
			case mv.Dst == d.K && mv.Src == a.Dst && !toK:
				toK = true
			case (mv.Dst == d.Lo || mv.Dst == d.Hi) && (mv.Src == g2.D || mv.Src == g2.E) && into[w] < 0:
				into[w] = mv.Dst
			default:
				return Instr{}, nil
			}
		}
		written = append(written, a.B, a.Dst)
	}
	d.Count = c[d.Arms[0]].D
	if into[0] == into[1] || h == 0 && (fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs) {
		return Instr{}, nil
	}
	for i, s := range written {
		if slices.Contains(written[i+1:], s) {
			return Instr{}, nil
		}
	}
	if into[1] == d.Lo {
		d.LoWord = 1
	}
	a := &c[d.Arms[0]]
	d.MidShift = uint8(bits.TrailingZeros64(uint64(g2.Imm)))
	d.ParityShift = uint8(bits.TrailingZeros64(uint64(g3.Imm >> 32)))
	d.KShift = uint8(bits.TrailingZeros64(uint64(a.Imm)))
	d.Len = int(g2.Len) + int(g3.Len) + int(a.Len) + int(head.Len)
	d.Cost = int64(g2.Cost) + int64(g3.Cost) + int64(a.Cost) + int64(head.Cost)
	return head, d
}

// pow2 reports whether k is a positive power of two.
func pow2(k int64) bool { return k > 0 && k&(k-1) == 0 }

// fuseAt matches the longest superinstruction pattern at the head of a
// plain stream (at least two slots long). Every group performs all the
// register writes of the slots it covers and sums their costs.
func fuseAt(p []Instr) (Instr, bool) {
	g, ok := censusGroup(p)
	if !ok {
		g, ok = pairGroup(p)
	}
	if !ok {
		return g, false
	}
	for i := 0; i < int(g.Len); i++ {
		g.Cost += p[i].Cost
	}
	return g, true
}

// constOperand reports whether p opens with a const.i feeding the integer
// add, sub, mul, div or mod after it as its B operand. A zero divisor
// never matches: the fault must come from the plain instruction.
func constOperand(p []Instr) bool {
	if len(p) < 2 || p[0].Op != OpConstI || p[1].B != p[0].Dst {
		return false
	}
	switch p[1].Op {
	case OpAddI, OpSubI, OpMulI:
		return true
	case OpDivI, OpModI:
		return p[0].Imm != 0
	}
	return false
}

// constFOperand reports whether p opens with a const.f feeding the float
// op after it as its B operand.
func constFOperand(p []Instr, op Op) bool {
	return len(p) > 1 && p[0].Op == OpConstF && p[1].Op == op && p[1].B == p[0].Dst
}

// fieldStore reports whether st is a stfld.f of add's result into the
// field ld loads, on the object ld loads it from.
func fieldStore(ld, add, st *Instr) bool {
	return st.Op == OpStoreFieldF && st.A == ld.A && st.Imm == ld.Imm && st.B == add.Dst
}

// cmpConstBr reports whether p opens with a const.i, the compare op taking
// it as its B operand, and the brfalse on the compare's result.
func cmpConstBr(p []Instr, op Op) bool {
	return len(p) > 2 && p[0].Op == OpConstI && p[1].Op == op && p[1].B == p[0].Dst &&
		p[2].Op == OpBrFalse && p[2].A == p[1].Dst
}

// censusGroup matches the census groups: the sequences one level of
// Barnes-Hut's tree descent runs below its head, and the float field
// update of every workload's accumulators. Only the shapes the census
// dispatches are fused; each is matched on its raw slots.
func censusGroup(p []Instr) (Instr, bool) {
	in := &p[0]
	if len(p) < 3 {
		return Instr{}, false
	}
	switch in.Op {
	case OpAddI: // add.i t,a,b; const.i c,K; div.i q,t,c; mov.i m,q
		if len(p) > 3 && constOperand(p[1:]) && p[2].Op == OpDivI && p[2].A == in.Dst &&
			p[3].Op == OpMovI && p[3].A == p[2].Dst {
			return Instr{Op: OpAddDivIKMov, Len: 4, Dst: in.Dst, A: in.A, B: in.B,
				C: p[1].Dst, D: p[2].Dst, E: p[3].Dst, Imm: p[1].Imm}, true
		}
	case OpConstI:
		if !constOperand(p) {
			break
		}
		if p[2].Op == OpTailCall { // *.ik; tailcall
			return Instr{Op: OpIKTailCall, Len: 3, Dst: p[1].Dst, A: p[1].A, B: p[1].B,
				C: int32(p[1].Op), D: p[2].D, E: p[2].E, Imm: in.Imm, Args: p[2].Args}, true
		}
		// const.i c1,K1; mod.i r,x,c1; const.i c2,K2; eq.i d,r,c2;
		// brfalse d. Both constants must fit the halves of Imm.
		if p[1].Op != OpModI || !cmpConstBr(p[2:], OpEqI) || p[3].A != p[1].Dst ||
			int64(int32(in.Imm)) != in.Imm || int64(int32(p[2].Imm)) != p[2].Imm {
			break
		}
		return Instr{Op: OpModIKEqIKBr, Len: 5, Dst: p[3].Dst, A: p[3].A, B: p[3].B,
			C: int32(p[4].Imm), D: p[1].A, E: p[1].B, Imm: in.Imm<<32 | int64(uint32(p[2].Imm))}, true
	case OpLoadFieldF:
		// ldfld.f d,o,f; const.f c,K; add.f s,x,c; stfld.f o,s,f. The
		// field moves to E, K takes Imm: a field that does not fit E
		// stays unfused.
		if len(p) > 3 && constFOperand(p[1:], OpAddF) && fieldStore(in, &p[2], &p[3]) &&
			int64(int32(in.Imm)) == in.Imm {
			add := &p[2]
			return Instr{Op: OpAddFieldFK, Len: 4, Dst: add.Dst, A: in.A, B: add.A, C: add.B,
				D: in.Dst, E: int32(in.Imm), Imm: p[1].Imm}, true
		}
		// ldfld.f d,o,f; add.f s,x,y; stfld.f o,s,f
		if add := &p[1]; add.Op == OpAddF && fieldStore(in, add, &p[2]) {
			return Instr{Op: OpAddFieldF, Len: 3, Dst: add.Dst, A: in.A, B: add.A, C: add.B,
				D: in.Dst, Imm: in.Imm}, true
		}
	}
	return Instr{}, false
}

// pairGroup matches the narrower groups: lt.i+br, the constant operand of
// an add or mul, const.i feeding le.i and its brfalse, the
// serial-loop latch, and loadparam feeding work. Costs are left to fuseAt.
func pairGroup(p []Instr) (Instr, bool) {
	in, next := &p[0], &p[1]
	g := Instr{Dst: next.Dst, A: next.A, B: next.B}
	switch {
	case in.Op == OpConstI && in.Imm == 1 && next.Op == OpAddI && len(p) > 2 && p[2].Op == OpJump &&
		next.Dst == next.A && next.B == in.Dst && next.Dst != in.Dst:
		// Serial-loop latch: const.i c,1 ; add.i a,a,c ; jump t.
		g.Op, g.Len, g.Dst, g.Imm = OpInc1Jump, 3, in.Dst, p[2].Imm
	case cmpConstBr(p, OpLeI):
		g.Op, g.Len, g.Imm, g.C = OpLeIKBr, 3, in.Imm, int32(p[2].Imm)
	case constOperand(p) && arithK[next.Op] != 0:
		g.Op, g.Len, g.Imm = arithK[next.Op], 2, in.Imm
	case constFOperand(p, OpMulF):
		g.Op, g.Len, g.Imm = OpMulFK, 2, in.Imm
	case in.Op == OpLoadParam && next.Op == OpCallWork && next.A == in.Dst:
		g = Instr{Op: OpWorkParam, Len: 2, Dst: in.Dst, B: next.Dst, Imm: in.Imm}
	case in.Op == OpLtI && next.Op == OpBrFalse && next.A == in.Dst:
		g = Instr{Op: OpLtIBr, Len: 2, Dst: in.Dst, A: in.A, B: in.B, Imm: next.Imm}
	default:
		return g, false
	}
	return g, true
}

// arithK maps the integer ops with an immediate-operand group to it.
var arithK = map[Op]Op{OpAddI: OpAddIK, OpMulI: OpMulIK}
