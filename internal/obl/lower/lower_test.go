package lower

import (
	"testing"

	"repro/internal/obl/callgraph"
	"repro/internal/obl/commute"
	"repro/internal/obl/ir"
	"repro/internal/obl/parser"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
)

func checkSrc(t *testing.T, src string) *sema.Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestLowerSerialProgram(t *testing.T) {
	info := checkSrc(t, `
class C { v: float; method bump(x: float) { this.v = this.v + x; } }
func main() {
  let c: C = new C();
  c.bump(2.5);
  print c.v;
}`)
	b := NewBuilder()
	if err := b.AddSerial(info); err != nil {
		t.Fatal(err)
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.FuncID("main") < 0 || p.FuncID("C::bump") < 0 {
		t.Errorf("functions missing: %v", p.FuncByName)
	}
	ops := map[ir.Op]int{}
	for _, f := range p.Funcs {
		for _, in := range f.Code {
			ops[in.Op]++
		}
	}
	for _, op := range []ir.Op{ir.OpNew, ir.OpCall, ir.OpLoadField, ir.OpStoreField, ir.OpAddF, ir.OpPrint} {
		if ops[op] == 0 {
			t.Errorf("no %v emitted", op)
		}
	}
}

func TestFinishRequiresMain(t *testing.T) {
	info := checkSrc(t, `func notmain() { }`)
	b := NewBuilder()
	if err := b.AddSerial(info); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Error("program without main accepted")
	}
}

// lowerParallel compiles a marked program through the policy path.
func lowerParallel(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	commute.New(info, callgraph.Build(info)).AnalyzeLoops()

	b := NewBuilder()
	for _, policy := range syncopt.AllPolicies {
		clone, err := syncopt.Rewrite(prog, syncopt.ParamsFor(policy))
		if err != nil {
			t.Fatal(err)
		}
		cinfo, err := sema.Check(clone)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddPolicy(cinfo, string(policy)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const parSrc = `
class Acc { v: float; method add(x: float) { this.v = this.v + x; } }
func run(a: Acc, n: int) {
  for i in 0..n { a.add(1.0); }
}
func main() {
  let a: Acc = new Acc();
  run(a, 10);
  print a.v;
}
`

func TestParallelLoweringAndSections(t *testing.T) {
	p := lowerParallel(t, parSrc)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(p.Sections) != 1 {
		t.Fatalf("sections = %d", len(p.Sections))
	}
	sec := p.Sections[0]
	if sec.Name != "RUN" || sec.NCaptured != 1 {
		t.Errorf("section %q captured %d", sec.Name, sec.NCaptured)
	}
	// OpParallel must appear in run@<policy> exactly once per surviving copy.
	found := false
	for _, f := range p.Funcs {
		for _, in := range f.Code {
			if in.Op == ir.OpParallel {
				found = true
				if in.Imm != 0 || len(in.Args) != 1 {
					t.Errorf("OpParallel wrong: %+v", in)
				}
			}
		}
	}
	if !found {
		t.Error("no OpParallel emitted")
	}
}

func TestDedupMergesAndVerifies(t *testing.T) {
	p := lowerParallel(t, parSrc)
	before := len(p.Funcs)
	Dedup(p)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) >= before {
		t.Errorf("dedup did not shrink: %d -> %d", before, len(p.Funcs))
	}
	// main is identical across policies: one copy.
	mains := 0
	for _, f := range p.Funcs {
		if f.Source == "main" {
			mains++
		}
	}
	if mains != 1 {
		t.Errorf("main copies = %d, want 1", mains)
	}
	// Dedup must be idempotent.
	after := len(p.Funcs)
	Dedup(p)
	if len(p.Funcs) != after {
		t.Errorf("dedup not idempotent: %d -> %d", after, len(p.Funcs))
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDedupPreservesRecursion(t *testing.T) {
	// Recursive and mutually recursive functions must dedup coinductively
	// across policies without breaking call targets.
	src := `
class Acc { v: float; method add(x: float) { this.v = this.v + x; } }
func even(n: int): bool { if n == 0 { return true; } return odd(n - 1); }
func odd(n: int): bool { if n == 0 { return false; } return even(n - 1); }
func run(a: Acc, n: int) {
  for i in 0..n { a.add(1.0); }
}
func main() {
  let a: Acc = new Acc();
  if even(4) { run(a, 10); }
  print a.v;
}
`
	p := lowerParallel(t, src)
	Dedup(p)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, f := range p.Funcs {
		counts[f.Source]++
	}
	if counts["even"] != 1 || counts["odd"] != 1 {
		t.Errorf("recursive funcs not deduped: %v", counts)
	}
}

func TestUsedFlagSites(t *testing.T) {
	p := &ir.Program{
		Funcs: []*ir.Func{
			{Name: "a", NRegs: 1, Code: []ir.Instr{
				{Op: ir.OpAcquireIf, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg, Imm: 2},
				{Op: ir.OpCall, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1},
				{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
			}},
			{Name: "b", NRegs: 1, Code: []ir.Instr{
				{Op: ir.OpReleaseIf, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg, Imm: 0},
				{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
			}},
		},
		FuncByName: map[string]int{"a": 0, "b": 1},
	}
	got := usedFlagSites(p, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("usedFlagSites = %v, want [0 2]", got)
	}
}

func TestFinalizeFlaggedSectionsGroupsByUsedSites(t *testing.T) {
	body := &ir.Func{Name: "body", NParams: 1, NRegs: 2, Code: []ir.Instr{
		{Op: ir.OpAcquireIf, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpReleaseIf, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg, Imm: 0},
		{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
	}}
	p := &ir.Program{
		Funcs:        []*ir.Func{body},
		FuncByName:   map[string]int{"body": 0},
		NumFlagSites: 2,
		Sections: []*ir.Section{{
			ID: 0, Name: "S", NCaptured: 0,
			Versions:      []ir.Version{{Policies: []string{"flagged"}, FuncID: 0}},
			PolicyVersion: map[string]int{"flagged": 0},
		}},
	}
	// Site 0 is used by the section; site 1 is not. Policies a and b agree
	// on site 0 and differ only on site 1: they must share a version.
	enabled := map[string][]bool{
		"a": {true, false},
		"b": {true, true},
		"c": {false, true},
	}
	FinalizeFlaggedSections(p, enabled, []string{"a", "b", "c"})
	sec := p.Sections[0]
	if len(sec.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(sec.Versions))
	}
	if sec.PolicyVersion["a"] != sec.PolicyVersion["b"] {
		t.Error("a and b not merged despite agreeing on used sites")
	}
	if sec.PolicyVersion["c"] == sec.PolicyVersion["a"] {
		t.Error("c wrongly merged with a")
	}
	if p.FlagPolicies == nil || len(p.FlagPolicies["a"]) != 2 {
		t.Error("FlagPolicies not installed")
	}
}
