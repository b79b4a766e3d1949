package ir

import (
	"strings"
	"testing"
)

func instr(op Op) Instr {
	return Instr{Op: op, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}
}

// tinyProgram builds a minimal valid program: main calls helper.
func tinyProgram() *Program {
	helper := &Func{Name: "helper", Source: "helper", NParams: 1, NRegs: 2}
	helper.Code = []Instr{
		{Op: OpMov, Dst: 1, A: 0, B: NoReg, C: NoReg},
		{Op: OpRet, Dst: NoReg, A: 1, B: NoReg, C: NoReg},
	}
	main := &Func{Name: "main", Source: "main", NParams: 0, NRegs: 2}
	main.Code = []Instr{
		{Op: OpConstInt, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Imm: 7},
		{Op: OpCall, Dst: 1, A: NoReg, B: NoReg, C: NoReg, Imm: 1, Args: []Reg{0}},
		{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg},
	}
	return &Program{
		Funcs:      []*Func{main, helper},
		FuncByName: map[string]int{"main": 0, "helper": 1},
		MainID:     0,
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpNop; op < opCount; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("opcode %d has no name", int(op))
		}
	}
	if !strings.HasPrefix(Op(200).String(), "Op(") {
		t.Error("unknown opcode not reported numerically")
	}
}

func TestInstrCosts(t *testing.T) {
	cases := []struct {
		op   Op
		want int64
	}{
		{OpAddI, CostSimple},
		{OpLoadField, CostMem},
		{OpStoreIndex, CostMem},
		{OpCall, CostCallOver},
		{OpNew, CostNew},
		{OpPrint, CostPrint},
		{OpAcquire, 0},
		{OpRelease, 0},
		{OpParallel, 0},
		{OpAcquireIf, CostFlagTest},
		{OpNop, 0},
	}
	for _, c := range cases {
		if got := instr(c.op).Cost(); got != c.want {
			t.Errorf("Cost(%v) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestCodeBytes(t *testing.T) {
	f := &Func{Code: []Instr{
		instr(OpNop),
		{Op: OpCall, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Args: []Reg{0, 1, 2, 3}},
	}}
	// 4 + (4 + 2 extra arg words × 4) = 16.
	if got := f.CodeBytes(); got != 16 {
		t.Errorf("CodeBytes = %d, want 16", got)
	}
}

func TestDisasmMentionsEverything(t *testing.T) {
	p := tinyProgram()
	text := Disasm(p.Funcs[0])
	for _, want := range []string{"func main", "const.i", "call", "#1", "(r0)", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("Disasm missing %q:\n%s", want, text)
		}
	}
}

func TestVerifyAcceptsValid(t *testing.T) {
	if err := tinyProgram().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"bad dst reg", func(p *Program) { p.Funcs[0].Code[0].Dst = 9 }, "out of range"},
		{"bad arg reg", func(p *Program) { p.Funcs[0].Code[1].Args[0] = -3 }, "out of range"},
		{"bad jump", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpJump, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Imm: 99}
		}, "jump target"},
		{"bad callee", func(p *Program) { p.Funcs[0].Code[1].Imm = 5 }, "bad callee"},
		{"call arity", func(p *Program) { p.Funcs[0].Code[1].Args = nil }, "args"},
		{"bad extern", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpCallExtern, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Imm: 0}
		}, "bad extern"},
		{"bad class", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpNew, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Imm: 3}
		}, "bad class"},
		{"bad section", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpParallel, Dst: NoReg, A: 0, B: 0, C: NoReg, Imm: 2}
		}, "bad section"},
		{"bad flag site", func(p *Program) {
			p.Funcs[0].Code[0] = Instr{Op: OpAcquireIf, Dst: NoReg, A: 0, B: NoReg, C: NoReg, Imm: 4}
		}, "bad flag site"},
		{"name table", func(p *Program) { p.FuncByName["main"] = 1 }, "FuncByName"},
		{"params exceed regs", func(p *Program) { p.Funcs[1].NParams = 5 }, "args, want 5"},
		{"bad main", func(p *Program) { p.MainID = 9 }, "bad MainID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProgram()
			tc.mutate(p)
			err := p.Verify()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Verify = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestVerifySections(t *testing.T) {
	p := tinyProgram()
	p.Sections = []*Section{{ID: 0, Name: "S", NCaptured: 0,
		Versions:      []Version{{Policies: []string{"original"}, FuncID: 1}},
		PolicyVersion: map[string]int{"original": 0},
	}}
	if err := p.Verify(); err != nil {
		t.Fatalf("valid section rejected: %v", err)
	}
	p.Sections[0].Versions[0].FuncID = 7
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "bad body func") {
		t.Errorf("bad body func not caught: %v", err)
	}
	p.Sections[0].Versions[0].FuncID = 1
	p.Sections[0].NCaptured = 3
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "params") {
		t.Errorf("captured/params mismatch not caught: %v", err)
	}
	p.Sections[0].NCaptured = 0
	p.Sections[0].PolicyVersion["bogus"] = 9
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "bad version") {
		t.Errorf("bad policy version not caught: %v", err)
	}
	p.Sections[0].PolicyVersion = map[string]int{}
	p.Sections[0].Versions = nil
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "no versions") {
		t.Errorf("empty versions not caught: %v", err)
	}
}

func TestVersionLabel(t *testing.T) {
	v := Version{Policies: []string{"original", "bounded"}}
	if got := v.Label(); got != "original/bounded" {
		t.Errorf("Label = %q", got)
	}
}

func TestFuncID(t *testing.T) {
	p := tinyProgram()
	if p.FuncID("helper") != 1 || p.FuncID("nope") != -1 {
		t.Error("FuncID lookup wrong")
	}
}
