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
//     boundaries do not move.
//   - Superinstruction fusion: compare+branch pairs, integer constants
//     folded into the arithmetic or compare+branch that consumes them,
//     the three-instruction serial-loop latch (const 1; add; jump) and
//     the census groups (censusGroup) collapse into single dispatches.
//     The per-slot Plain stream keeps the unfused instructions so jumps
//     into a group and step-budget boundaries behave exactly as unfused
//     code. A function that is one level of a binary descent closed by a
//     self tail call then gets the loop superinstruction OpDescend at its
//     head and a register plan (descentPlan): one dispatch runs as many
//     whole levels as the step budget admits with lo, hi and k in host
//     registers, and a level the budget cannot admit whole runs as the
//     ordinary groups.
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
// caller: no calls of any kind, no section entry, and no way for the pc
// to run off the end of the body (so execution always leaves the splice
// through a return, never by falling into the caller's next instruction).
func inlinable(fc *FuncCode) bool {
	n := len(fc.Plain)
	if n == 0 {
		return false
	}
	switch fc.Plain[n-1].Op {
	case OpRetI, OpRetF, OpRetR, OpRetVoid, OpJump:
	default:
		return false
	}
	for pc := range fc.Plain {
		in := &fc.Plain[pc]
		switch in.Op {
		case OpCall, OpTailCall, OpCallEnter, OpParallel,
			OpIRetI, OpIRetF, OpIRetR, OpIRetVoid:
			return false
		case OpJump, OpBrFalse:
			if int(in.Imm) >= n {
				return false
			}
		}
	}
	return true
}

// inlineExpand splices every small leaf callee into fc's plain stream,
// growing fc's frame by each splice's register ranges. Leaf callees hold
// no calls, so their own streams are never expanded: the pass reads the
// same callee code whichever function it visits first.
func (m *Module) inlineExpand(fc *FuncCode) {
	src := fc.Plain
	splice := make(map[int]*FuncCode)
	grow := 0
	for pc := range src {
		in := &src[pc]
		if in.Op != OpCall || int(in.Imm) == fc.ID {
			continue
		}
		callee := m.Funcs[in.Imm]
		if len(callee.Plain) > maxInlineLen || !inlinable(callee) {
			continue
		}
		if len(src)+grow+len(callee.Plain) > maxFuncGrowth {
			break
		}
		splice[pc] = callee
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
		callee, ok := splice[pc]
		if !ok {
			if in.Op == OpJump || in.Op == OpBrFalse {
				fixups = append(fixups, len(out))
			}
			out = append(out, in)
			continue
		}

		// Fresh register ranges for this splice.
		ib, fb, rb := fc.FrameInts, fc.FrameFloats, fc.FrameRefs
		fc.FrameInts += callee.NInts
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
		out = append(out, Instr{
			Op: OpCallEnter, Len: 1, Cost: in.Cost,
			A: ib, B: ib + zi, C: fb, Dst: fb + zf,
			Imm:  int64(rb)<<32 | int64(rb+zr),
			Args: moves,
		})

		bodyStart := int32(len(out))
		end := int64(bodyStart) + int64(len(callee.Plain))
		pos = append(pos, callee.Src...)
		for _, cin := range callee.Plain {
			switch cin.Op {
			case OpRetI, OpRetF, OpRetR:
				// OpIRetI/F/R are declared in the order of OpRetI/F/R.
				o := Instr{Op: OpIRetI + cin.Op - OpRetI, Len: 1, Cost: cin.Cost,
					A: cin.A + base[opRegs[cin.Op].a], Imm: end}
				if in.Dst < 0 {
					// Result discarded at the call site.
					o.Op, o.Dst = OpIRetVoid, -1
				} else {
					o.Dst = in.Dst
				}
				out = append(out, o)
			case OpRetVoid:
				out = append(out, Instr{
					Op: OpIRetVoid, Len: 1, Cost: cin.Cost,
					Dst: in.Dst, B: in.C, Imm: end,
				})
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

// remapSlots adds a splice's bank bases (indexed by bank+1; base[0] is 0)
// to every register-slot field of an inlined instruction, as opRegs
// describes them.
func remapSlots(o *Instr, base *[4]int32) {
	r := opRegs[o.Op]
	if o.Dst >= 0 { // extern results may be discarded (-1)
		o.Dst += base[r.dst]
	}
	o.A += base[r.a]
	o.B += base[r.b]
	o.C += base[r.c]
}

// fuse builds fc.Code from the plain stream: every slot where a
// superinstruction pattern starts outside the group before it becomes the
// group's head. Group tails keep their plain copies in Code too, so jumps
// that land inside a group execute unfused.
func (fc *FuncCode) fuse() {
	code := make([]Instr, len(fc.Plain))
	copy(code, fc.Plain)
	for pc := 0; pc+1 < len(code); pc++ {
		if g, ok := fuseAt(fc.Plain[pc:]); ok {
			code[pc] = g
			pc += int(g.Len) - 1
		}
	}
	fc.Code = code
	if d := descentPlan(fc); d != nil {
		code[0].Op = OpDescend
		fc.Descent = d
	}
}

// Descent is OpDescend's register plan, built once per function by
// descentPlan: what the engine needs to run whole levels of a binary
// descent with lo, hi and k in host registers. The other registers a level
// writes are read from the groups' own slots when the bank is written
// back.
type Descent struct {
	// Lo, Hi and K are the int parameter slots of lo, hi and k.
	Lo, Hi, K int32
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

// descentPlan returns the register plan of fc when its fused code is one
// level of a binary descent closed by a self tail call, and nil otherwise.
// The shape: the pc-0 sub.i+le.ik+br group computing hi - lo, whose
// not-taken target is add.i+div.ik+mov.i on lo and hi, then
// mod.ik+eq.ik+br (or ne) on k, whose two arms are arith.ik+tailcall
// groups of one Len, Cost and divisor dividing k, each moving its
// quotient into k and g2's mid into a different one of lo and hi. Every
// divisor is a power of two, the frame zeroes no bank, and the slots the
// level writes are distinct, so the engine may keep lo, hi and k in
// locals and write every other register once, when it leaves.
func descentPlan(fc *FuncCode) *Descent {
	c := fc.Code
	if len(c) == 0 || c[0].Op != OpSubLeIKBr || fc.ZeroInts || fc.ZeroFloats || fc.ZeroRefs {
		return nil
	}
	head := &c[0]
	d := &Descent{Lo: head.E, Hi: head.D, G2: head.C}
	if int(d.G2) >= len(c) {
		return nil
	}
	g2 := &c[d.G2]
	if g2.Op != OpAddDivIKMov || !pow2(g2.Imm) || !(g2.A == d.Lo && g2.B == d.Hi || g2.A == d.Hi && g2.B == d.Lo) {
		return nil
	}
	d.G3 = d.G2 + int32(g2.Len)
	if int(d.G3) >= len(c) {
		return nil
	}
	g3 := &c[d.G3]
	if op := g3.Op; op != OpModIKEqIKBr && op != OpModIKNeIKBr || !pow2(g3.Imm>>32) {
		return nil
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
			return nil
		}
		a := &c[pc]
		if a.Op != OpIKTailCall || Op(a.C) != OpDivI || !pow2(a.Imm) || a.A != d.K ||
			int(fc.Plain[pc+2].Imm) != fc.ID || len(a.Args) != 2 {
			return nil
		}
		if b := &c[d.Arms[0]]; a.Len != b.Len || a.Cost != b.Cost || a.Imm != b.Imm {
			return nil
		}
		toK := false
		for _, mv := range a.Args {
			switch {
			case mv.Bank != BankInt:
				return nil
			case mv.Dst == d.K && mv.Src == a.Dst && !toK:
				toK = true
			case (mv.Dst == d.Lo || mv.Dst == d.Hi) && (mv.Src == g2.D || mv.Src == g2.E) && into[w] < 0:
				into[w] = mv.Dst
			default:
				return nil
			}
		}
		written = append(written, a.B, a.Dst)
	}
	if into[0] == into[1] {
		return nil
	}
	for i, s := range written {
		if slices.Contains(written[i+1:], s) {
			return nil
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
	return d
}

// pow2 reports whether k is a positive power of two.
func pow2(k int64) bool { return k > 0 && k&(k-1) == 0 }

var (
	cmpBr = map[Op]Op{
		OpEqI: OpEqIBr, OpNeI: OpNeIBr, OpEqF: OpEqFBr, OpNeF: OpNeFBr,
		OpEqR: OpEqRBr, OpNeR: OpNeRBr,
		OpLtI: OpLtIBr, OpLeI: OpLeIBr, OpGtI: OpGtIBr, OpGeI: OpGeIBr,
		OpLtF: OpLtFBr, OpLeF: OpLeFBr, OpGtF: OpGtFBr, OpGeF: OpGeFBr,
		OpNot: OpNotBr,
	}
	cmpKBr = map[Op]Op{
		OpEqI: OpEqIKBr, OpNeI: OpNeIKBr,
		OpLtI: OpLtIKBr, OpLeI: OpLeIKBr, OpGtI: OpGtIKBr, OpGeI: OpGeIKBr,
	}
	arithK = map[Op]Op{
		OpAddI: OpAddIK, OpSubI: OpSubIK, OpMulI: OpMulIK, OpDivI: OpDivIK, OpModI: OpModIK,
	}
)

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

// censusGroup matches the census groups: the four sequences one level of
// Barnes-Hut's tree descent runs as nine dispatches, and the float field
// update of every workload's accumulators. Each extends a pairGroup match
// by the instruction before or after it, or joins two of them. Only the
// variants the census found are fused, and ne beside eq, which shares its
// case; the others of each shape (add feeding a compare, compares other
// than le, add feeding mod) occur in no program here.
func censusGroup(p []Instr) (Instr, bool) {
	in := &p[0]
	if len(p) < 3 {
		return Instr{}, false
	}
	switch in.Op {
	case OpSubI: // sub.i t,a,b; le.ik+br on t
		if g, ok := pairGroup(p[1:]); ok && g.Op == OpLeIKBr && g.A == in.Dst {
			g.Op, g.Len, g.D, g.E = OpSubLeIKBr, 4, in.A, in.B
			return g, true
		}
	case OpAddI: // add.i t,a,b; div.ik q,t,K; mov.i m,q
		if g, ok := pairGroup(p[1:]); ok && g.Op == OpDivIK && g.A == in.Dst &&
			len(p) > 3 && p[3].Op == OpMovI && p[3].A == g.Dst {
			return Instr{Op: OpAddDivIKMov, Len: 4, Dst: in.Dst, A: in.A, B: in.B,
				C: g.B, D: g.Dst, E: p[3].Dst, Imm: g.Imm}, true
		}
	case OpConstI:
		g, ok := pairGroup(p)
		if !ok || g.Len != 2 {
			break
		}
		if p[2].Op == OpTailCall { // *.ik; tailcall
			return Instr{Op: OpIKTailCall, Len: 3, Dst: g.Dst, A: g.A, B: g.B,
				C: int32(p[1].Op), Imm: g.Imm, Args: p[2].Args}, true
		}
		if g.Op != OpModIK || len(p) < 5 {
			break
		}
		// mod.ik r,x,K1; eq/ne.ik+br on r. Both constants must fit the
		// halves of Imm.
		c, ok := pairGroup(p[2:])
		if !ok || c.A != g.Dst || int64(int32(g.Imm)) != g.Imm || int64(int32(c.Imm)) != c.Imm {
			break
		}
		switch c.Op {
		case OpEqIKBr:
			c.Op = OpModIKEqIKBr
		case OpNeIKBr:
			c.Op = OpModIKNeIKBr
		default:
			return Instr{}, false
		}
		c.Len, c.D, c.E, c.Imm = 5, g.A, g.B, g.Imm<<32|int64(uint32(c.Imm))
		return c, true
	case OpLoadFieldF: // ldfld.f d,o,f; add.f s,x,y; stfld.f o,s,f
		add, st := &p[1], &p[2]
		if add.Op == OpAddF && st.Op == OpStoreFieldF && st.A == in.A && st.Imm == in.Imm && st.B == add.Dst {
			return Instr{Op: OpAddFieldF, Len: 3, Dst: add.Dst, A: in.A, B: add.A, C: add.B,
				D: in.Dst, Imm: in.Imm}, true
		}
	}
	return Instr{}, false
}

// pairGroup matches the groups of one instruction and its consumer:
// compare+branch, the constant operand of an integer op or compare+branch,
// and the serial-loop latch. Costs are left to fuseAt.
func pairGroup(p []Instr) (Instr, bool) {
	in, next := &p[0], &p[1]
	g := Instr{Dst: next.Dst, A: next.A, B: next.B}
	isBr := func(i int, cond int32) bool {
		return i < len(p) && p[i].Op == OpBrFalse && p[i].A == cond
	}
	switch {
	case in.Op == OpConstI && in.Imm == 1 && next.Op == OpAddI && len(p) > 2 && p[2].Op == OpJump &&
		next.Dst == next.A && next.B == in.Dst && next.Dst != in.Dst:
		// Serial-loop latch: const.i c,1 ; add.i a,a,c ; jump t.
		g.Op, g.Len, g.Dst, g.Imm = OpInc1Jump, 3, in.Dst, p[2].Imm
	case in.Op == OpConstI && next.B == in.Dst && cmpKBr[next.Op] != 0 && isBr(2, next.Dst):
		g.Op, g.Len, g.Imm, g.C = cmpKBr[next.Op], 3, in.Imm, int32(p[2].Imm)
	case in.Op == OpConstI && next.B == in.Dst && arithK[next.Op] != 0:
		if (next.Op == OpDivI || next.Op == OpModI) && in.Imm == 0 {
			return g, false // the fault must come from the plain instruction
		}
		g.Op, g.Len, g.Imm = arithK[next.Op], 2, in.Imm
	case cmpBr[in.Op] != 0 && isBr(1, in.Dst):
		g = Instr{Op: cmpBr[in.Op], Len: 2, Dst: in.Dst, A: in.A, B: in.B, Imm: next.Imm}
	default:
		return g, false
	}
	return g, true
}
