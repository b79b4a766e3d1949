package vm

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
	"repro/internal/obl/polgen"
)

// TestCompileSpecializesEverySite checks the module against the two
// passes' own definitions, over the three applications in the
// multi-version and flag-dispatch builds and over the generated 18-spec
// policy space: every slot where fuseAt matches outside the preceding
// group is that group's head and every other Code slot is its plain
// instruction verbatim (so group tails stay executable for jumps into the
// middle), Plain holds single instructions only, Src locates every slot,
// and no call to a small leaf callee is left out of line while the
// function had room to grow. Each census group occurs in these programs.
// The descent loop head and its register plan (descentPlan) sit at pc 0
// of every Barnes-Hut tree descent and of no other function, with the
// head's other slots plain behind it.
func TestCompileSpecializesEverySite(t *testing.T) {
	census := map[Op]int{OpAddDivIKMov: 0, OpModIKEqIKBr: 0, OpIKTailCall: 0, OpAddFieldF: 0, OpDescend: 0}
	check := func(label string, p *ir.Program) {
		m, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		groups, splices := 0, 0
		for _, fc := range m.Funcs {
			if len(fc.Code) != len(fc.Plain) || len(fc.Src) != len(fc.Plain) {
				t.Fatalf("%s/%s: Code %d slots, Src %d, Plain %d", label, fc.Name, len(fc.Code), len(fc.Src), len(fc.Plain))
			}
			want := make([]Instr, len(fc.Plain)) // the Code the definitions give
			tail := 0                            // slots left in the group whose head was just passed
			for pc := range fc.Plain {
				pl := fc.Plain[pc]
				if pl.Len != 1 {
					t.Errorf("%s/%s: Plain slot %d has Len %d", label, fc.Name, pc, pl.Len)
				}
				switch pl.Op {
				case OpCallEnter:
					splices++
				case OpCall:
					callee := m.Funcs[pl.Imm]
					if int(pl.Imm) != fc.ID && len(callee.Plain) <= maxInlineLen && inlinable(callee) &&
						len(fc.Plain)+len(callee.Plain) <= maxFuncGrowth {
						t.Errorf("%s/%s: pc %d: call to leaf %s (%d slots) left out of line",
							label, fc.Name, pc, callee.Name, len(callee.Plain))
					}
				}
				want[pc] = pl
				if tail > 0 {
					tail--
				} else if pc+1 < len(fc.Plain) {
					if g, ok := fuseAt(fc.Plain[pc:]); ok {
						want[pc], tail = g, int(g.Len)-1
						groups++
						if _, ok := census[g.Op]; ok {
							census[g.Op]++
						}
					}
				}
			}
			fused := *fc
			fused.Code = want
			isWalk := strings.HasPrefix(fc.Name, "Body::walk@")
			head, plan := descentPlan(&fused)
			if plan != nil {
				copy(want[1:head.Len], fc.Plain[1:])
				want[0] = head
				census[OpDescend]++
				if !isWalk {
					t.Errorf("%s/%s: descent plan outside Barnes-Hut's tree descent", label, fc.Name)
				}
			} else if isWalk {
				t.Errorf("%s/%s: tree descent has no descent plan", label, fc.Name)
			}
			if !reflect.DeepEqual(fc.Descent, plan) {
				t.Errorf("%s/%s: descent plan %+v, want %+v", label, fc.Name, fc.Descent, plan)
			}
			for pc := range fc.Code {
				if co := fc.Code[pc]; !reflect.DeepEqual(co, want[pc]) {
					t.Errorf("%s/%s: Code slot %d is %v len %d, want %v len %d",
						label, fc.Name, pc, co.Op, co.Len, want[pc].Op, want[pc].Len)
				}
			}
		}
		t.Logf("%s: %d groups, %d splices", label, groups, splices)
		if groups == 0 || splices == 0 {
			t.Errorf("%s: %d superinstruction groups, %d inline splices; want both", label, groups, splices)
		}
	}
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/parallel", c.Parallel)
		g, err := apps.CompileWithSpecs(name, polgen.Space())
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/generated", g.Parallel)
	}
	for op, n := range census {
		if n == 0 {
			t.Errorf("no %v group in any program", op)
		}
	}
}
