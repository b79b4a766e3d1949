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
//     self tail call (descentHead) then gets the loop superinstruction
//     OpDescend at its head: one dispatch runs its groups level after
//     level while the step budget admits each next group whole.
//
// Neither changes observable behaviour; they only reduce dispatches and
// memory traffic per simulated instruction.

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
	if descentHead(fc) {
		code[0].Op = OpDescend
	}
}

// descentHead reports whether fc's fused code is one level of a binary
// descent closed by a self tail call, the shape OpDescend runs as a loop:
// the pc-0 sub.i+le.ik+br group, whose not-taken target is
// add.i+div.ik+mov.i, then mod.ik+eq.ik+br (or ne), whose two arms are
// both arith.ik+tailcall groups dividing by a constant, every divisor a
// power of two (the loop halves by shift and tests parity by mask).
func descentHead(fc *FuncCode) bool {
	c := fc.Code
	if len(c) == 0 || c[0].Op != OpSubLeIKBr {
		return false
	}
	ad := int(c[0].C)
	if ad >= len(c) || c[ad].Op != OpAddDivIKMov || !pow2(c[ad].Imm) {
		return false
	}
	md := ad + int(c[ad].Len)
	if md >= len(c) {
		return false
	}
	if op := c[md].Op; op != OpModIKEqIKBr && op != OpModIKNeIKBr || !pow2(c[md].Imm>>32) {
		return false
	}
	for _, arm := range [2]int{md + int(c[md].Len), int(c[md].C)} {
		if arm >= len(c) {
			return false
		}
		g := &c[arm]
		if g.Op != OpIKTailCall || Op(g.C) != OpDivI || !pow2(g.Imm) || int(fc.Plain[arm+2].Imm) != fc.ID {
			return false
		}
	}
	return true
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
