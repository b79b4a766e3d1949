package interp

import (
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
// re-pointed whenever a bank arena grows. The count of tail calls that
// reused the frame, whose charges the eventual return replays, is its int
// slot fc.NInts (vm.FuncCode).
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
// lazily by OpCallEnter before use.
func (t *vmTask) push(funcID int, retSlot int32, retBank uint8) {
	fc := t.mod.Funcs[funcID]
	ib, fb, rb := len(t.intStack), len(t.floatStack), len(t.refStack)
	ti, tf, tr := ib+int(fc.FrameInts), fb+int(fc.FrameFloats), rb+int(fc.FrameRefs)
	grown := ti > cap(t.intStack) || tf > cap(t.floatStack) || tr > cap(t.refStack)
	t.intStack = grow(t.intStack, ti)
	t.floatStack = grow(t.floatStack, tf)
	t.refStack = grow(t.refStack, tr)
	if grown {
		t.repoint()
	}
	ints := t.intStack[ib:ti:ti]
	floats := t.floatStack[fb:tf:tf]
	refs := t.refStack[rb:tr:tr]
	if fc.ZeroInts {
		clear(ints[:fc.NInts])
	}
	if fc.ZeroFloats {
		clear(floats[:fc.NFloats])
	}
	if fc.ZeroRefs {
		clear(refs[:fc.NRefs])
	}
	ints[fc.NInts] = 0 // the collapse counter
	t.frames = append(t.frames, vmFrame{
		fc: fc, ibase: ib, fbase: fb, rbase: rb,
		ints: ints, floats: floats, refs: refs,
		retSlot: retSlot, retBank: retBank,
	})
}

// grow returns s resliced to length top, moved to a larger backing array
// (doubling, at least 64) when top exceeds its capacity. A register arena
// that moved needs its frames' windows re-pointed.
func grow[T any](s []T, top int) []T {
	if top <= cap(s) {
		return s[:top]
	}
	g := make([]T, top, max(2*cap(s), top, 64))
	copy(g, s)
	return g
}

// repoint re-slices every frame's windows into the task's current arenas:
// after an arena grew, and after a restore installed cloned ones.
func (t *vmTask) repoint() {
	for i := range t.frames {
		f := &t.frames[i]
		ie := f.ibase + int(f.fc.FrameInts)
		fe := f.fbase + int(f.fc.FrameFloats)
		re := f.rbase + int(f.fc.FrameRefs)
		f.ints = t.intStack[f.ibase:ie:ie]
		f.floats = t.floatStack[f.fbase:fe:fe]
		f.refs = t.refStack[f.rbase:re:re]
	}
}

func (t *vmTask) popFrame() {
	fr := &t.frames[len(t.frames)-1]
	t.intStack = t.intStack[:fr.ibase]
	t.floatStack = t.floatStack[:fr.fbase]
	t.refStack = t.refStack[:fr.rbase]
	t.frames = t.frames[:len(t.frames)-1]
}
