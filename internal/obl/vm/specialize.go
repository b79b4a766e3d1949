package vm

// Profile-guided specialization. Specialize rebuilds a module from the
// baseline translation and the counters of a completed profiling run:
//
//   - Inline expansion: hot calls to small leaf callees are spliced into
//     the caller as OpCallEnter + remapped body + OpIRet*, with the
//     callee's registers living in fresh ranges appended to the caller's
//     frame. Charges and instruction counts are preserved one-for-one
//     (OpCallEnter charges what OpCall did and zeroes the ranges the push
//     would have zeroed; OpIRet* charge what OpRet did), so dispatch
//     boundaries do not move.
//   - Uncontended lock sites: acquire sites that never blocked during
//     profiling (and their release counterparts) switch to OpAcquireU /
//     OpReleaseU, which memoize the site's object→lock resolution in a
//     per-task monomorphic cache. The cache is guarded, so a site that
//     turns polymorphic or contended later is still exact.
//   - Superinstruction fusion: the hottest compare+branch pairs, integer
//     constants folded into the arithmetic or compare+branch that
//     consumes them, and the three-instruction serial-loop latch (const
//     1; add; jump) collapse into single dispatches. The per-slot Plain
//     stream keeps the unfused instructions so jumps into a group and
//     step-budget boundaries behave exactly as unspecialized code.
//
// None of this changes observable behaviour; it only reduces dispatches
// and memory traffic per simulated instruction.

const (
	// hotThreshold is the minimum profile count for a site to be worth
	// rewriting. Specialization is a per-program one-time cost, so the
	// bar is low: anything executed more than a few hundred times.
	hotThreshold = 256
	// maxInlineLen bounds the callee size for inline expansion.
	maxInlineLen = 48
	// maxFuncGrowth bounds a function's post-inline code size.
	maxFuncGrowth = 4096
)

// Specialize builds a specialized module from a baseline module and the
// profile of a completed run of it.
func Specialize(base *Module, prof *Profile) *Module {
	m := &Module{
		Prog:         base.Prog,
		Funcs:        make([]*FuncCode, len(base.Funcs)),
		NumLockSites: base.NumLockSites,
		Specialized:  true,
	}
	for id := range base.Funcs {
		m.Funcs[id] = specializeFunc(base, id, prof)
	}
	return m
}

func specializeFunc(base *Module, id int, prof *Profile) *FuncCode {
	fc := base.Funcs[id]
	nf := &FuncCode{
		Name: fc.Name, ID: fc.ID, NParams: fc.NParams,
		NInts: fc.NInts, NFloats: fc.NFloats, NRefs: fc.NRefs,
		ZeroInts: fc.ZeroInts, ZeroFloats: fc.ZeroFloats, ZeroRefs: fc.ZeroRefs,
		FrameInts: fc.FrameInts, FrameFloats: fc.FrameFloats, FrameRefs: fc.FrameRefs,
		PInts: fc.PInts, PFloats: fc.PFloats, PRefs: fc.PRefs,
		RegBank: fc.RegBank, RegSlot: fc.RegSlot,
	}
	plain, counts, blocked := inlineExpand(base, fc, nf, prof)
	for pc := range plain {
		in := &plain[pc]
		if counts[pc] < hotThreshold {
			continue
		}
		switch in.Op {
		case OpAcquire:
			if blocked[pc] == 0 {
				in.Op = OpAcquireU
			}
		case OpRelease:
			in.Op = OpReleaseU
		}
	}
	code := make([]Instr, len(plain))
	copy(code, plain)
	fuse(code, plain, counts)
	nf.Plain, nf.Code = plain, code
	return nf
}

// inlinable reports whether a function body can be spliced into a
// caller: no calls of any kind, no section entry, and no way for the pc
// to run off the end of the body (so execution always leaves the splice
// through a return, never by falling into the caller's next instruction).
func inlinable(fc *FuncCode) bool {
	n := len(fc.Code)
	if n == 0 {
		return false
	}
	switch fc.Code[n-1].Op {
	case OpRetI, OpRetF, OpRetR, OpRetVoid, OpJump:
	default:
		return false
	}
	for pc := range fc.Code {
		in := &fc.Code[pc]
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

// inlineExpand splices hot small callees into fc's code, growing nf's
// frame by each splice's register ranges. It returns the expanded
// instruction stream with per-slot execution and blocked counters
// (spliced slots carry the callee's own counters, which is what fusion
// needs to judge their heat).
func inlineExpand(base *Module, fc *FuncCode, nf *FuncCode, prof *Profile) ([]Instr, []int64, []int64) {
	counts, blocked := prof.Counts[fc.ID], prof.Blocked[fc.ID]
	splice := make(map[int]*FuncCode)
	grow := 0
	for pc := range fc.Code {
		in := &fc.Code[pc]
		if in.Op != OpCall || counts[pc] < hotThreshold || int(in.Imm) == fc.ID {
			continue
		}
		callee := base.Funcs[in.Imm]
		if len(callee.Code) > maxInlineLen || !inlinable(callee) {
			continue
		}
		if len(fc.Code)+grow+len(callee.Code) > maxFuncGrowth {
			break
		}
		splice[pc] = callee
		grow += len(callee.Code)
	}
	if len(splice) == 0 {
		out := make([]Instr, len(fc.Code))
		copy(out, fc.Code)
		return out, counts, blocked
	}

	newPC := make([]int32, len(fc.Code)+1)
	out := make([]Instr, 0, len(fc.Code)+grow)
	nc := make([]int64, 0, len(fc.Code)+grow)
	nb := make([]int64, 0, len(fc.Code)+grow)
	var fixups []int // out indices of caller jumps whose targets need remapping
	for pc := range fc.Code {
		newPC[pc] = int32(len(out))
		in := fc.Code[pc]
		callee, ok := splice[pc]
		if !ok {
			if in.Op == OpJump || in.Op == OpBrFalse {
				fixups = append(fixups, len(out))
			}
			out = append(out, in)
			nc = append(nc, counts[pc])
			nb = append(nb, blocked[pc])
			continue
		}

		// Fresh register ranges for this splice.
		ib, fb, rb := nf.FrameInts, nf.FrameFloats, nf.FrameRefs
		nf.FrameInts += callee.NInts
		nf.FrameFloats += callee.NFloats
		nf.FrameRefs += callee.NRefs
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
			Op: OpCallEnter, Len: 1, Cost: in.Cost, OrigPC: in.OrigPC, SrcFn: in.SrcFn,
			A: ib, B: ib + zi, C: fb, Dst: fb + zf,
			Imm:  int64(rb)<<32 | int64(rb+zr),
			Args: moves,
		})
		nc = append(nc, counts[pc])
		nb = append(nb, blocked[pc])

		bodyStart := int32(len(out))
		end := int64(bodyStart) + int64(len(callee.Code))
		ccounts, cblocked := prof.Counts[callee.ID], prof.Blocked[callee.ID]
		for t := range callee.Code {
			cin := callee.Code[t]
			switch cin.Op {
			case OpRetI, OpRetF, OpRetR:
				// OpIRetI/F/R are declared in the order of OpRetI/F/R.
				o := Instr{Op: OpIRetI + cin.Op - OpRetI, Len: 1, Cost: cin.Cost, OrigPC: cin.OrigPC,
					SrcFn: cin.SrcFn, A: cin.A + base[opRegs[cin.Op].a], Imm: end}
				if in.Dst < 0 {
					// Result discarded at the call site.
					o.Op, o.Dst = OpIRetVoid, -1
				} else {
					o.Dst = in.Dst
				}
				out = append(out, o)
			case OpRetVoid:
				out = append(out, Instr{
					Op: OpIRetVoid, Len: 1, Cost: cin.Cost, OrigPC: cin.OrigPC, SrcFn: cin.SrcFn,
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
			nc = append(nc, ccounts[t])
			nb = append(nb, cblocked[t])
		}
	}
	newPC[len(fc.Code)] = int32(len(out))
	for _, i := range fixups {
		out[i].Imm = int64(newPC[out[i].Imm])
	}
	return out, nc, nb
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

// fuse rewrites hot superinstruction patterns in code, leaving plain as
// the per-slot unfused stream. Group tails keep their plain copies in
// code too, so jumps that land inside a group execute unfused.
func fuse(code, plain []Instr, counts []int64) {
	for pc := 0; pc+1 < len(code); pc++ {
		if counts[pc] < hotThreshold {
			continue
		}
		if g, ok := fuseAt(plain[pc:]); ok {
			code[pc] = g
			pc += int(g.Len) - 1
		}
	}
}

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
	in, next := &p[0], &p[1]
	g := Instr{Dst: next.Dst, A: next.A, B: next.B, OrigPC: in.OrigPC, SrcFn: in.SrcFn}
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
		g = Instr{Op: cmpBr[in.Op], Len: 2, Dst: in.Dst, A: in.A, B: in.B, Imm: next.Imm,
			OrigPC: in.OrigPC, SrcFn: in.SrcFn}
	default:
		return g, false
	}
	for i := 0; i < int(g.Len); i++ {
		g.Cost += p[i].Cost
	}
	return g, true
}
