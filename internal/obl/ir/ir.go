// Package ir defines the register-based intermediate representation the
// OBL compiler lowers to and the simulated machine executes. Every
// instruction carries a virtual execution cost calibrated to the era of the
// paper's evaluation hardware (a 33 MHz MIPS-based Stanford DASH node), so
// that simulated execution times have paper-like magnitudes.
//
// The representation keeps the paper's structure explicit: Acquire/Release
// instructions are the synchronization constructs that the optimization
// policies move and eliminate, and the Parallel instruction enters a
// multi-version parallel section driven by dynamic feedback.
package ir

import (
	"fmt"
	"strings"
	"sync"
)

// Reg is a virtual register index within a function frame.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op uint8

// The instruction set.
const (
	// OpNop does nothing.
	OpNop Op = iota

	// Constants and moves: Dst receives the value.
	OpConstInt   // Dst = Imm
	OpConstFloat // Dst = F
	OpConstBool  // Dst = Imm != 0
	OpConstNil   // Dst = nil reference
	OpMov        // Dst = A
	OpLoadParam  // Dst = program parameter #Imm

	// Integer arithmetic.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI

	// Float arithmetic.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF

	// Conversions.
	OpIntToFloat
	OpFloatToInt

	// Comparisons: Dst = A op B. Eq/Ne work on any matching kinds.
	OpEq
	OpNe
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpNot

	// Control flow: Imm is the code index target.
	OpJump    // pc = Imm
	OpBrFalse // if !A: pc = Imm

	// Calls. Args hold the argument registers.
	OpCall       // Dst = Funcs[Imm](Args...)
	OpCallExtern // Dst = Externs[Imm](Args...)
	OpRet        // return A (NoReg for void)

	// Objects and arrays.
	OpNew        // Dst = new Classes[Imm]
	OpNewArr     // Dst = new array[A] with element kind Imm (see ElemKind)
	OpLoadField  // Dst = A.fields[Imm]
	OpStoreField // A.fields[Imm] = B
	OpLoadIndex  // Dst = A[B]
	OpStoreIndex // A[B] = C
	OpLen        // Dst = len(A)

	// Synchronization constructs (§2): the mutual exclusion lock of the
	// object in register A.
	OpAcquire // acquire A.lock
	OpRelease // release A.lock

	// Conditional synchronization constructs for the flag-dispatch
	// single-version mode (§4.2): acquire/release only if the runtime flag
	// with index Imm is set for the current policy.
	OpAcquireIf
	OpReleaseIf

	// Parallel section entry: Sections[Imm] over iterations [A, B) with
	// captured values Args.
	OpParallel

	// Output.
	OpPrint // print A

	opCount
)

var opNames = [...]string{
	OpNop: "nop", OpConstInt: "const.i", OpConstFloat: "const.f",
	OpConstBool: "const.b", OpConstNil: "const.nil", OpMov: "mov",
	OpLoadParam: "loadparam",
	OpAddI:      "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i",
	OpModI: "mod.i", OpNegI: "neg.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpNegF:       "neg.f",
	OpIntToFloat: "i2f", OpFloatToInt: "f2i",
	OpEq: "eq", OpNe: "ne",
	OpLtI: "lt.i", OpLeI: "le.i", OpGtI: "gt.i", OpGeI: "ge.i",
	OpLtF: "lt.f", OpLeF: "le.f", OpGtF: "gt.f", OpGeF: "ge.f",
	OpNot:  "not",
	OpJump: "jump", OpBrFalse: "brfalse",
	OpCall: "call", OpCallExtern: "callext", OpRet: "ret",
	OpNew: "new", OpNewArr: "newarr",
	OpLoadField: "ldfld", OpStoreField: "stfld",
	OpLoadIndex: "ldidx", OpStoreIndex: "stidx", OpLen: "len",
	OpAcquire: "acquire", OpRelease: "release",
	OpAcquireIf: "acquire.if", OpReleaseIf: "release.if",
	OpParallel: "parallel", OpPrint: "print",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ElemKind describes array element representation for OpNewArr.
type ElemKind int64

// Array element kinds.
const (
	ElemInt ElemKind = iota
	ElemFloat
	ElemBool
	ElemRef
)

// Instr is one instruction.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	C    Reg
	Imm  int64
	F    float64
	Args []Reg
}

// Cost model, in virtual nanoseconds: roughly a 33 MHz in-order RISC (the
// DASH node processor), i.e. ~30ns per simple operation.
const (
	CostSimple   = 30  // ALU, moves, constants, comparisons, branches
	CostMem      = 60  // field/array loads and stores
	CostCallOver = 240 // call/return linkage
	CostNew      = 600 // object or array header allocation
	CostPerElem  = 15  // per-element array zeroing
	CostPrint    = 2000
	CostFlagTest = 30 // residual flag check of conditional sync (§4.2)
)

// Cost returns the instruction's base virtual cost in nanoseconds. Extern
// calls add the extern's declared cost at execution time; acquire/release
// and parallel-section costs are charged by the runtime.
func (i Instr) Cost() int64 {
	switch i.Op {
	case OpLoadField, OpStoreField, OpLoadIndex, OpStoreIndex:
		return CostMem
	case OpCall, OpRet:
		return CostCallOver
	case OpCallExtern:
		return CostCallOver
	case OpNew, OpNewArr:
		return CostNew
	case OpPrint:
		return CostPrint
	case OpAcquire, OpRelease, OpParallel:
		return 0 // charged by the runtime
	case OpAcquireIf, OpReleaseIf:
		return CostFlagTest // the flag test itself; lock cost by runtime
	case OpNop:
		return 0
	default:
		return CostSimple
	}
}

// Func is a compiled function body.
type Func struct {
	// Name is unique within the program; policy variants carry suffixes
	// (e.g. "Body::one_interaction@aggressive").
	Name string
	// Source is the original OBL full name this function was generated
	// from, without policy suffixes.
	Source string
	// NParams is the number of leading registers filled with arguments.
	NParams int
	// NRegs is the frame size.
	NRegs int
	Code  []Instr
	// RegKinds records each register's static value representation
	// (lowering allocates a fresh register per variable and temporary, so
	// a register's kind never changes over its lifetime). The interpreter
	// ignores it; the bytecode compiler (internal/obl/vm) uses it to split
	// the register file into typed banks. Nil for hand-built programs, in
	// which case the bytecode compiler infers kinds or declines the
	// function.
	RegKinds []ElemKind
}

// CodeBytes returns the function's executable size in bytes, modeling four
// bytes per instruction word plus one word per extra call argument. Table 1
// of the paper compares these footprints across compilation strategies.
func (f *Func) CodeBytes() int {
	n := 0
	for _, in := range f.Code {
		n += 4
		if len(in.Args) > 2 {
			n += 4 * (len(in.Args) - 2)
		}
	}
	return n
}

// Extern describes an external pure function (declared in OBL source with
// a virtual cost).
type Extern struct {
	Name  string
	NArgs int
	Cost  int64
}

// Class is the runtime layout of a class.
type Class struct {
	Name   string
	Fields []string
	// FieldKinds gives each field's representation, for zero
	// initialization at allocation.
	FieldKinds []ElemKind
}

// Version is one synchronization-policy variant of a parallel section.
type Version struct {
	// Policies lists the policy names this version implements; policies
	// whose generated code is identical share one version, as in the paper
	// (§6.2: "the compiler therefore does not generate an Aggressive
	// version").
	Policies []string
	// FuncID is the body function: parameters are the captured values
	// followed by the iteration index.
	FuncID int
	// Flags configures the conditional synchronization constructs for the
	// flag-dispatch mode (§4.2); nil otherwise.
	Flags []bool
	// Chunk is the iteration-scheduling granularity: 0 or 1 means workers
	// claim one iteration at a time from the shared counter (the paper's
	// dynamic schedule); k > 1 means workers claim chunks of k contiguous
	// iterations, trading load balance for claim traffic.
	Chunk int
}

// Label returns the version's display name, e.g. "Bounded/Aggressive".
func (v Version) Label() string { return strings.Join(v.Policies, "/") }

// Section is a parallel section: a parallel loop with one or more policy
// versions among which the dynamic feedback runtime chooses.
type Section struct {
	ID       int
	Name     string
	Versions []Version
	// PolicyVersion maps a policy name to its version index.
	PolicyVersion map[string]int
	// NCaptured is the number of captured values passed to body functions.
	NCaptured int
}

// Program is a complete compiled program.
type Program struct {
	Funcs      []*Func
	FuncByName map[string]int
	Externs    []Extern
	Classes    []*Class
	Sections   []*Section
	// FlagPolicies, for flag-dispatch programs (§4.2 single-version mode),
	// maps each policy name to its global site-flag vector; nil otherwise.
	FlagPolicies map[string][]bool
	// NumFlagSites is the number of conditional synchronization sites.
	NumFlagSites int
	// Params are the program parameters with their default values.
	Params map[string]int64
	// ParamNames fixes the parameter index order used by OpLoadParam.
	ParamNames []string
	MainID     int

	// loaded is the state an execution engine derives from the program
	// once (see Loaded). It hangs off the program, not off a table keyed by
	// it, so it is collected with the program.
	loadOnce sync.Once
	loaded   any
}

// Loaded returns the program's engine state, calling build for it on first
// use; every later call, from any goroutine, returns that same value. The
// program must not change afterwards.
func (p *Program) Loaded(build func() any) any {
	p.loadOnce.Do(func() { p.loaded = build() })
	return p.loaded
}

// FuncID returns the index of the named function, or -1.
func (p *Program) FuncID(name string) int {
	if id, ok := p.FuncByName[name]; ok {
		return id
	}
	return -1
}

// Disasm renders a function's code for debugging and the oblc tool.
func Disasm(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d regs=%d bytes=%d)\n", f.Name, f.NParams, f.NRegs, f.CodeBytes())
	for pc, in := range f.Code {
		fmt.Fprintf(&b, "  %4d: %-10s", pc, in.Op)
		if in.Dst != NoReg {
			fmt.Fprintf(&b, " r%d", in.Dst)
		}
		if in.A != NoReg {
			fmt.Fprintf(&b, " r%d", in.A)
		}
		if in.B != NoReg {
			fmt.Fprintf(&b, " r%d", in.B)
		}
		if in.C != NoReg {
			fmt.Fprintf(&b, " r%d", in.C)
		}
		switch in.Op {
		case OpConstFloat:
			fmt.Fprintf(&b, " %g", in.F)
		case OpConstInt, OpConstBool, OpJump, OpBrFalse, OpLoadParam,
			OpCall, OpCallExtern, OpNew, OpNewArr, OpLoadField, OpStoreField,
			OpParallel, OpAcquireIf, OpReleaseIf:
			fmt.Fprintf(&b, " #%d", in.Imm)
		}
		if len(in.Args) > 0 {
			parts := make([]string, len(in.Args))
			for i, r := range in.Args {
				parts[i] = fmt.Sprintf("r%d", r)
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(parts, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Verify checks structural invariants of a program: register bounds, jump
// targets, function/extern/class/section indices, and section body
// signatures. The lowering and optimization passes run it in tests.
func (p *Program) Verify() error {
	checkReg := func(f *Func, r Reg, pc int, what string) error {
		if r == NoReg {
			return nil
		}
		if r < 0 || int(r) >= f.NRegs {
			return fmt.Errorf("ir: %s: pc %d: %s register r%d out of range [0,%d)", f.Name, pc, what, r, f.NRegs)
		}
		return nil
	}
	for id, f := range p.Funcs {
		if got := p.FuncByName[f.Name]; got != id {
			return fmt.Errorf("ir: FuncByName[%q] = %d, want %d", f.Name, got, id)
		}
		if f.NParams > f.NRegs {
			return fmt.Errorf("ir: %s: NParams %d > NRegs %d", f.Name, f.NParams, f.NRegs)
		}
		if f.RegKinds != nil && len(f.RegKinds) != f.NRegs {
			return fmt.Errorf("ir: %s: RegKinds has %d entries, want %d", f.Name, len(f.RegKinds), f.NRegs)
		}
		for pc, in := range f.Code {
			for _, rc := range []struct {
				r    Reg
				what string
			}{{in.Dst, "dst"}, {in.A, "A"}, {in.B, "B"}, {in.C, "C"}} {
				if err := checkReg(f, rc.r, pc, rc.what); err != nil {
					return err
				}
			}
			for _, r := range in.Args {
				if err := checkReg(f, r, pc, "arg"); err != nil {
					return err
				}
			}
			switch in.Op {
			case OpJump, OpBrFalse:
				if in.Imm < 0 || in.Imm > int64(len(f.Code)) {
					return fmt.Errorf("ir: %s: pc %d: jump target %d out of range", f.Name, pc, in.Imm)
				}
			case OpCall:
				if in.Imm < 0 || in.Imm >= int64(len(p.Funcs)) {
					return fmt.Errorf("ir: %s: pc %d: bad callee %d", f.Name, pc, in.Imm)
				}
				callee := p.Funcs[in.Imm]
				if len(in.Args) != callee.NParams {
					return fmt.Errorf("ir: %s: pc %d: call %s with %d args, want %d",
						f.Name, pc, callee.Name, len(in.Args), callee.NParams)
				}
			case OpCallExtern:
				if in.Imm < 0 || in.Imm >= int64(len(p.Externs)) {
					return fmt.Errorf("ir: %s: pc %d: bad extern %d", f.Name, pc, in.Imm)
				}
				if len(in.Args) != p.Externs[in.Imm].NArgs {
					return fmt.Errorf("ir: %s: pc %d: extern %s with %d args, want %d",
						f.Name, pc, p.Externs[in.Imm].Name, len(in.Args), p.Externs[in.Imm].NArgs)
				}
			case OpNew:
				if in.Imm < 0 || in.Imm >= int64(len(p.Classes)) {
					return fmt.Errorf("ir: %s: pc %d: bad class %d", f.Name, pc, in.Imm)
				}
			case OpParallel:
				if in.Imm < 0 || in.Imm >= int64(len(p.Sections)) {
					return fmt.Errorf("ir: %s: pc %d: bad section %d", f.Name, pc, in.Imm)
				}
			case OpAcquireIf, OpReleaseIf:
				if in.Imm < 0 || in.Imm >= int64(p.NumFlagSites) {
					return fmt.Errorf("ir: %s: pc %d: bad flag site %d (have %d)", f.Name, pc, in.Imm, p.NumFlagSites)
				}
			}
		}
	}
	for _, s := range p.Sections {
		if len(s.Versions) == 0 {
			return fmt.Errorf("ir: section %s has no versions", s.Name)
		}
		for _, v := range s.Versions {
			if v.FuncID < 0 || v.FuncID >= len(p.Funcs) {
				return fmt.Errorf("ir: section %s: bad body func %d", s.Name, v.FuncID)
			}
			body := p.Funcs[v.FuncID]
			if body.NParams != s.NCaptured+1 {
				return fmt.Errorf("ir: section %s: body %s has %d params, want %d captured + iter",
					s.Name, body.Name, body.NParams, s.NCaptured)
			}
		}
		for policy, vi := range s.PolicyVersion {
			if vi < 0 || vi >= len(s.Versions) {
				return fmt.Errorf("ir: section %s: policy %s maps to bad version %d", s.Name, policy, vi)
			}
		}
	}
	if p.MainID < 0 || p.MainID >= len(p.Funcs) {
		return fmt.Errorf("ir: bad MainID %d", p.MainID)
	}
	return nil
}
