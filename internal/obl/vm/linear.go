package vm

import (
	"math/bits"
	"slices"
)

// Linear is the plan of a linear non-tail recursion, built by linearPlan:
//
//	f(p..., k) { if k <= Limit { base; return b } x...; r = f(p..., k + Step); return x + r }
//
// The head tests the int parameter k against a constant; the base arm and
// the recursive arm are straight-line code; the recursive arm computes a
// pending value x, calls f once with every other parameter passed through
// unchanged and k moved by the constant Step (< 0), and returns x + r or
// r + x. Neither x nor b depends on k, and every extern either arm calls
// is pure (Intrinsics, not work), so both are the same at every level: a
// call with n recursive levels returns x + (x + (... + (x + b))), which
// the engine computes with one evaluation of each arm and n additions in
// the code's operand order, and charges as the n+1 frames would.
type Linear struct {
	// KParam is k's parameter index and K its int slot.
	KParam int
	K      int32
	// Limit is the head's constant: the base arm runs when k <= Limit.
	// Step is what each recursive call adds to k.
	Limit, Step int64
	// Base and Arm are the plain instructions of the base arm before its
	// ret.f and of the recursive arm before its self call. Each reads only
	// the parameters other than k, constants and its own writes, except
	// where shareExterns made Arm read what Base left: Arm runs after Base,
	// over the same registers.
	Base, Arm []Instr
	// BaseVal is the float slot the base arm returns, X the pending value.
	BaseVal, X int32
	// XFirst says the addition reads x as its first operand (x + r).
	XFirst bool
	// LevelLen and LevelCost are a recursive level's instructions and
	// virtual cost: the head, the arm, the self call, the addition and
	// the return. BaseLen and BaseCost are the base level's: the head, the
	// base arm and its return.
	LevelLen, BaseLen   int
	LevelCost, BaseCost int64
}

// Levels returns the recursive levels a call with k runs before its base
// arm, and whether there are at most max of them and none moves k past
// the int64 range (a wrapped k would take the base test elsewhere).
// When it reports false the caller runs the frames, which fault or yield
// where they do.
func (l *Linear) Levels(k int64, max int) (int, bool) {
	if k <= l.Limit {
		return 0, max >= 0
	}
	if max <= 0 {
		return 0, false
	}
	step := uint64(-l.Step)          // Step < 0; -MinInt64 wraps to 1<<63, its magnitude
	n := uint64(k) - uint64(l.Limit) // the distance to the limit
	if step > 1 {                    // the common step of 1 needs no division
		n = n/step + min(n%step, 1)
	}
	if n > uint64(max) {
		return 0, false
	}
	// The last call's k is k - n*step: it must not fall below MinInt64,
	// which lies uint64(k)^1<<63 below k.
	if hi, lo := bits.Mul64(n, step); hi != 0 || lo > uint64(k)^1<<63 {
		return 0, false
	}
	return int(n), true
}

// linearOps are the instructions a planned arm may hold: arithmetic and
// moves that cannot fault and read no object, and the calls of pure
// externs.
var linearOps = map[Op]bool{
	OpConstI: true, OpConstF: true, OpMovI: true, OpMovF: true,
	OpAddI: true, OpSubI: true, OpMulI: true, OpNegI: true,
	OpAddF: true, OpSubF: true, OpMulF: true, OpDivF: true, OpNegF: true,
	OpI2F: true, OpCallFFF: true, OpCallIF: true,
}

// linearPlan returns fc's linear-recursion plan (Linear) when its plain
// stream has that shape, and nil otherwise. The head is pc 0's const.i,
// le.i on k and brfalse; the base arm falls through from it and the
// recursive arm is the brfalse target. No instruction the two arms or the
// head run writes a parameter, an arm reads no register the head wrote,
// and k's only reader in the arms is the add or sub of a constant that
// becomes the self call's k.
func linearPlan(fc *FuncCode) *Linear {
	p := fc.Plain
	if len(p) < 3 || !cmpConstBr(p, OpLeI) {
		return nil
	}
	l := &Linear{KParam: -1, K: p[1].A, Limit: p[0].Imm}
	for i := range fc.NParams {
		if fc.RegBank[i] == BankInt && fc.RegSlot[i] == l.K {
			l.KParam = i
		}
	}
	if l.KParam < 0 || fc.isParam(BankInt, p[0].Dst) || fc.isParam(BankInt, p[1].Dst) {
		return nil
	}
	headCost := int64(p[0].Cost) + int64(p[1].Cost) + int64(p[2].Cost)

	base, end := linearArm(fc, 3, l.K)
	if base == nil || end >= len(p) || p[end].Op != OpRetF || !base.pure(BankFloat, p[end].A) {
		return nil
	}
	l.Base, l.BaseVal = p[3:end], p[end].A
	l.BaseLen, l.BaseCost = len(l.Base)+4, headCost+base.cost+int64(p[end].Cost)

	start := int(p[2].Imm)
	arm, c := linearArm(fc, start, l.K)
	if arm == nil || c+2 >= len(p) {
		return nil
	}
	call, add, ret := &p[c], &p[c+1], &p[c+2]
	if call.Op != OpCall || int(call.Imm) != fc.ID || len(call.Args) != fc.NParams ||
		call.Dst < 0 || call.C != BankFloat || fc.isParam(BankFloat, call.Dst) ||
		add.Op != OpAddF || ret.Op != OpRetF || ret.A != add.Dst {
		return nil
	}
	for i, mv := range call.Args {
		switch {
		case i != l.KParam && mv.Src != mv.Dst:
			return nil // a parameter other than k must pass through
		case i == l.KParam:
			d, ok := arm.kStep[mv.Src]
			if !ok || d >= 0 {
				return nil
			}
			l.Step = d
		}
	}
	switch r := call.Dst; {
	case add.A == r && add.B != r:
		l.X = add.B
	case add.B == r && add.A != r:
		l.X, l.XFirst = add.A, true
	default:
		return nil
	}
	if !arm.pure(BankFloat, l.X) {
		return nil
	}
	l.Arm = shareExterns(fc, l.K, l.Base, p[start:c])
	l.LevelLen = len(l.Arm) + 6
	l.LevelCost = headCost + arm.cost + int64(call.Cost) + int64(add.Cost) + int64(ret.Cost)
	return l
}

// shareExterns returns arm with every pure extern call that repeats a call
// of base — the same extern on the same parameters, none of them k —
// replaced by a move of the slot base's call wrote, where neither the rest
// of base nor arm before the call writes that slot: the engine runs arm
// right after base over the same registers, so a level then calls each
// such extern once. The move keeps the call's cost: only the host's work
// is shared.
func shareExterns(fc *FuncCode, k int32, base, arm []Instr) []Instr {
	out := slices.Clone(arm)
	for i := range out {
		in := &out[i]
		for j := range base {
			b := &base[j]
			if !sameParamCall(fc, k, b, in) || writes(base[j+1:], b) || writes(out[:i], b) {
				continue
			}
			*in = Instr{Op: OpMovF, Len: 1, Cost: in.Cost, Dst: in.Dst, A: b.Dst}
			break
		}
	}
	return out
}

// sameParamCall reports whether a and b are calls of one pure extern, in
// one form, on the same parameters other than k.
func sameParamCall(fc *FuncCode, k int32, a, b *Instr) bool {
	switch a.Op {
	case OpCallFFF, OpCallIF:
	default:
		return false
	}
	args := armReads(a)
	if a.Op != b.Op || a.Imm != b.Imm || !slices.Equal(args, armReads(b)) {
		return false
	}
	for _, x := range args {
		if !fc.isParam(x.Bank, x.Src) || x.Bank == BankInt && x.Src == k {
			return false
		}
	}
	return true
}

// writes reports whether an instruction of code writes the slot call
// writes its result to, in its bank.
func writes(code []Instr, call *Instr) bool {
	bank := opRegs[call.Op].dst
	for i := range code {
		if opRegs[code[i].Op].dst == bank && code[i].Dst == call.Dst {
			return true
		}
	}
	return false
}

// armReads is the registers an arm instruction reads, {bank, slot} as
// Bank and Src.
func armReads(in *Instr) []ArgMove {
	var reads []ArgMove
	r := opRegs[in.Op]
	for _, x := range [3]struct {
		b    uint8
		slot int32
	}{{r.a, in.A}, {r.b, in.B}, {r.c, in.C}} {
		if x.b != 0 {
			reads = append(reads, ArgMove{Bank: x.b - 1, Src: x.slot})
		}
	}
	return reads
}

// isParam reports whether slot of bank holds a parameter: parameters are
// each bank's first registers.
func (fc *FuncCode) isParam(bank uint8, slot int32) bool {
	return slot < [3]int32{fc.PInts, fc.PFloats, fc.PRefs}[bank]
}

// armState is what linearArm knows of the registers after an arm's
// straight-line code: which were written or are parameters (def), which
// depend on k, the int constants, the registers holding k plus a constant,
// and the arm's virtual cost.
type armState struct {
	def, taint map[[2]int32]bool // keyed by {bank, slot}
	konst      map[int32]int64
	kStep      map[int32]int64
	cost       int64
}

// pure reports whether the register holds a value the arm computed, or a
// parameter, that does not depend on k.
func (s *armState) pure(bank uint8, slot int32) bool {
	r := [2]int32{int32(bank), slot}
	return s.def[r] && !s.taint[r]
}

// linearArm walks fc's plain stream from pc start over the instructions a
// planned arm may hold (linearOps), and returns what they leave and the pc
// of the first other instruction. It returns nil when one of them reads a
// register neither a parameter nor written before it in the arm, reads a
// ref, or writes a parameter.
func linearArm(fc *FuncCode, start int, k int32) (*armState, int) {
	s := &armState{def: map[[2]int32]bool{}, taint: map[[2]int32]bool{},
		konst: map[int32]int64{}, kStep: map[int32]int64{}}
	for i := range fc.NParams {
		s.def[[2]int32{int32(fc.RegBank[i]), fc.RegSlot[i]}] = true
	}
	s.taint[[2]int32{BankInt, k}] = true
	pc := start
	for ; pc >= 0 && pc < len(fc.Plain); pc++ {
		in := &fc.Plain[pc]
		if !linearOps[in.Op] {
			return s, pc
		}
		dst := opRegs[in.Op].dst // the written bank + 1, 0 for none
		tainted := false
		for _, rd := range armReads(in) {
			r := [2]int32{int32(rd.Bank), rd.Src}
			if rd.Bank == BankRef || !s.def[r] {
				return nil, pc
			}
			tainted = tainted || s.taint[r]
		}
		if dst == 0 || fc.isParam(dst-1, in.Dst) {
			return nil, pc
		}
		w := [2]int32{int32(dst - 1), in.Dst}
		s.def[w], s.taint[w] = true, tainted
		s.cost += int64(in.Cost)
		if dst-1 != BankInt {
			continue
		}
		// Track the int constants and k plus a constant. A write replaces
		// whatever the slot held.
		c, isConst := s.konst[in.B]
		delete(s.konst, in.Dst)
		delete(s.kStep, in.Dst)
		switch {
		case in.Op == OpConstI:
			s.konst[in.Dst] = in.Imm
		case in.Op == OpSubI && in.A == k && isConst:
			s.kStep[in.Dst] = -c
		case in.Op == OpAddI && in.A == k && isConst:
			s.kStep[in.Dst] = c
		}
	}
	return s, pc
}

// markLinearCalls builds every function's linear-recursion plan and then
// turns each call of a planned function that passes all its parameters
// into OpCallLinear, in both streams: a call is never part of a fused
// group, so its Code slot is its Plain one.
func (m *Module) markLinearCalls() {
	for _, fc := range m.Funcs {
		fc.Linear = linearPlan(fc)
	}
	for _, fc := range m.Funcs {
		for pc := range fc.Plain {
			in := &fc.Plain[pc]
			if in.Op != OpCall || m.Funcs[in.Imm].Linear == nil || len(in.Args) != m.Funcs[in.Imm].NParams {
				continue
			}
			in.Op = OpCallLinear
			fc.Code[pc].Op = OpCallLinear
		}
	}
}
