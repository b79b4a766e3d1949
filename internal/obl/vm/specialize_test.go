package vm

import (
	"reflect"
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
// middle), Plain holds single instructions only, and no call to a small
// leaf callee is left out of line while the function had room to grow.
func TestCompileSpecializesEverySite(t *testing.T) {
	check := func(label string, p *ir.Program) {
		m, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		groups, splices := 0, 0
		for _, fc := range m.Funcs {
			if len(fc.Code) != len(fc.Plain) {
				t.Fatalf("%s/%s: Code %d slots, Plain %d", label, fc.Name, len(fc.Code), len(fc.Plain))
			}
			tail := 0 // slots left in the group whose head was just passed
			for pc := range fc.Plain {
				pl, co := fc.Plain[pc], fc.Code[pc]
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
				want := pl
				if tail > 0 {
					tail--
				} else if pc+1 < len(fc.Plain) {
					if g, ok := fuseAt(fc.Plain[pc:]); ok {
						want, tail = g, int(g.Len)-1
						groups++
					}
				}
				if !reflect.DeepEqual(co, want) {
					t.Errorf("%s/%s: Code slot %d is %v len %d, want %v len %d",
						label, fc.Name, pc, co.Op, co.Len, want.Op, want.Len)
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
		check(name+"/flagged", c.Flagged)
		g, err := apps.CompileWithSpecs(name, polgen.Space())
		if err != nil {
			t.Fatal(err)
		}
		check(name+"/generated", g.Parallel)
	}
}
