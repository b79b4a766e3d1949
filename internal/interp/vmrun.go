package interp

import (
	"slices"

	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
	"repro/internal/simmach"
)

// This file is the bytecode VM, the production engine (Options.Engine ==
// EngineVM): the per-program module, and the frame and register-bank
// storage vmTask plugs into the worker state machine of interp.go.
// Equivalence with the step interpreter is bit-exact and covers everything
// a Result can observe: virtual times, machine counters, scheduler step
// counts (so dispatch boundaries — the stepBudget accounting, yield-first
// sync — are reproduced instruction for instruction, a release taken ahead
// counting as the dispatch it spares), program output, and controller
// samples and switches. Races, flags, AsyncSwitch and the trace are not
// part of it: Run makes an oracle run of each (oracleReason).

// vmModuleFor returns the program's module, compiled on first use.
func vmModuleFor(p *ir.Program) (*vm.Module, error) {
	s := loadStateOf(p)
	s.vmOnce.Do(func() { s.vmMod, s.vmErr = vm.Compile(p) })
	return s.vmMod, s.vmErr
}

// vmFrame is one activation record over the three banks. The windows are
// re-pointed whenever a bank arena grows. The three have one length, the
// largest of the function's bank sizes (windowLen), so exec bounds all
// three banks with one register. A window's slots past its bank's size are
// never read or written: the arena's length advances by the bank's size
// only, and the padding reaches into the next frame's slots or the arena's
// spare capacity. The count of tail calls that reused the
// frame, whose charges the eventual return replays, is its int slot
// fc.NInts (vm.FuncCode).
type vmFrame struct {
	fc                  *vm.FuncCode
	pc                  int
	ibase, fbase, rbase int
	ints                []int64
	floats              []float64
	refs                []*Object
	retSlot             int32
	retBank             uint8
}

// vmTask is the bytecode executor: typed register banks over a compiled
// vm.Module.
type vmTask struct {
	worker
	mod    *vm.Module
	frames []vmFrame
	// Per-bank register arenas backing every frame's windows.
	intStack   []int64
	floatStack []float64
	refStack   []*Object
	// collapsed sums the collapse counters of every live frame and of
	// every open self-tail-recursive splice, plus one for each such splice
	// (the frame it stands for), so the call-depth check sees the same
	// stack height the interpreter would.
	collapsed int64
}

func (t *vmTask) depth() int { return len(t.frames) }

func (t *vmTask) dropFrames() {
	t.frames = t.frames[:0]
	t.intStack = t.intStack[:0]
	t.floatStack = t.floatStack[:0]
	t.refStack = t.refStack[:0]
	t.collapsed = 0
}

// openBody fills the body function's parameters by bank.
func (t *vmTask) openBody(funcID int, args []Value, iter int64) {
	t.push(funcID, -1, 0)
	fr := &t.frames[len(t.frames)-1]
	fc := fr.fc
	for i, av := range args {
		switch fc.RegBank[i] {
		case vm.BankFloat:
			fr.floats[fc.RegSlot[i]] = av.F
		case vm.BankRef:
			fr.refs[fc.RegSlot[i]] = av.Ref
		default:
			fr.ints[fc.RegSlot[i]] = av.I
		}
	}
	fr.ints[fc.RegSlot[len(args)]] = iter
}

// enterSection handles OpParallel on the main task.
func (t *vmTask) enterSection(p *simmach.Proc, fr *vmFrame, in *vm.Instr) {
	args := make([]Value, len(in.Args))
	for _, mv := range in.Args {
		switch mv.Bank {
		case vm.BankFloat:
			args[mv.Dst] = Value{Kind: KindFloat, F: fr.floats[mv.Src]}
		case vm.BankRef:
			args[mv.Dst] = Value{Kind: KindRef, Ref: fr.refs[mv.Src]}
		default:
			args[mv.Dst] = Value{Kind: KindInt, I: fr.ints[mv.Src]}
		}
	}
	t.fork(p, t.rt.prog.Sections[in.Imm], fr.ints[in.A], fr.ints[in.B], args)
}

// push opens an activation record. The original register region of a
// bank is cleared only when the function can read one of its registers
// before writing it (vm.FuncCode.ZeroInts etc.); the caller then writes
// every parameter slot. Ranges appended by inline expansion are zeroed
// lazily by OpCallEnter before use. The record is written in place in
// t.frames, and an arena's slice header is rewritten whole only when the
// arena moves: otherwise its length is all that changes.
func (t *vmTask) push(funcID int, retSlot int32, retBank uint8) {
	fc := t.mod.Funcs[funcID]
	ib, fb, rb := len(t.intStack), len(t.floatStack), len(t.refStack)
	n := windowLen(fc)
	ie, fe, re := ib+n, fb+n, rb+n
	if ie > cap(t.intStack) || fe > cap(t.floatStack) || re > cap(t.refStack) {
		t.growArenas(ie, fe, re)
	}
	t.intStack = t.intStack[:ib+int(fc.FrameInts)]
	t.floatStack = t.floatStack[:fb+int(fc.FrameFloats)]
	t.refStack = t.refStack[:rb+int(fc.FrameRefs)]
	if len(t.frames) == cap(t.frames) {
		t.frames = slices.Grow(t.frames, 1)
	}
	t.frames = t.frames[:len(t.frames)+1]
	fr := &t.frames[len(t.frames)-1]
	fr.fc, fr.pc = fc, 0
	fr.ibase, fr.fbase, fr.rbase = ib, fb, rb
	fr.ints = t.intStack[ib:ie:ie]
	fr.floats = t.floatStack[fb:fe:fe]
	fr.refs = t.refStack[rb:re:re]
	fr.retSlot, fr.retBank = retSlot, retBank
	if fc.ZeroInts {
		clear(fr.ints[:fc.NInts])
	}
	if fc.ZeroFloats {
		clear(fr.floats[:fc.NFloats])
	}
	if fc.ZeroRefs {
		clear(fr.refs[:fc.NRefs])
	}
	fr.ints[fc.NInts] = 0 // the collapse counter
}

// growArenas moves each register arena whose capacity is below its end
// (ie, fe, re) to a larger backing array and re-points the frames' windows.
func (t *vmTask) growArenas(ie, fe, re int) {
	t.intStack = grow(t.intStack, len(t.intStack), ie)
	t.floatStack = grow(t.floatStack, len(t.floatStack), fe)
	t.refStack = grow(t.refStack, len(t.refStack), re)
	t.repoint()
}

// grow returns s resliced to length top with a capacity of at least end,
// moved to a larger backing array (doubling, at least 64) when end exceeds
// its capacity. A register arena that moved needs its frames' windows
// re-pointed.
func grow[T any](s []T, top, end int) []T {
	if end <= cap(s) {
		return s[:top]
	}
	g := make([]T, top, max(2*cap(s), end, 64))
	copy(g, s)
	return g
}

// repoint re-slices every frame's windows into the task's current arenas:
// after an arena grew, and after a restore installed cloned ones.
func (t *vmTask) repoint() {
	for i := range t.frames {
		f := &t.frames[i]
		n := windowLen(f.fc)
		ie, fe, re := f.ibase+n, f.fbase+n, f.rbase+n
		f.ints = t.intStack[f.ibase:ie:ie]
		f.floats = t.floatStack[f.fbase:fe:fe]
		f.refs = t.refStack[f.rbase:re:re]
	}
}

// windowLen is the length of each of a frame's three bank windows: the
// largest of fc's bank sizes.
func windowLen(fc *vm.FuncCode) int {
	return int(max(fc.FrameInts, fc.FrameFloats, fc.FrameRefs))
}

func (t *vmTask) popFrame() {
	fr := &t.frames[len(t.frames)-1]
	t.intStack = t.intStack[:fr.ibase]
	t.floatStack = t.floatStack[:fr.fbase]
	t.refStack = t.refStack[:fr.rbase]
	t.frames = t.frames[:len(t.frames)-1]
}
