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
// multi-version build and over the generated 18-spec policy space, their
// externs called unboxed: every slot where fuseAt matches outside the
// preceding group is that group's head and every other Code slot is its
// plain instruction verbatim (so group tails stay executable for jumps
// into the middle), Plain holds single instructions only, Src locates
// every slot, and no call to a small leaf callee — self-tail-recursive
// ones included — is left out of line while the function had room to
// grow. Each census group occurs in these programs. The descent loop head
// and its register plan (descentPlan) sit at pc 0 of every Barnes-Hut tree
// descent and at the body head of every splice of it, and nowhere else,
// with the head's other slots plain behind it and the splice's entry fused
// with the head; every self-tail-recursive splice's tail calls restart at
// its body head on its own collapse counter, which its returns replay, as
// a frame's tail calls restart at pc 0 on the frame's counter.
func TestCompileSpecializesEverySite(t *testing.T) {
	census := map[Op]int{OpAddDivIKMov: 0, OpModIKEqIKBr: 0, OpIKTailCall: 0, OpAddFieldF: 0,
		OpAddFieldFK: 0, OpMulFK: 0, OpDescend: 0, OpEnterDescend: 0, OpWorkParam: 0}
	isWalk := func(m *Module, fn int32) bool { return strings.HasPrefix(m.Funcs[fn].Name, "Body::walk@") }
	check := func(label string, p *ir.Program) (tailSplices int) {
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
			heads := []int32{0}                  // where a descent head may sit
			tail := 0                            // slots left in the group whose head was just passed
			for pc := range fc.Plain {
				pl := fc.Plain[pc]
				if pl.Len != 1 {
					t.Errorf("%s/%s: Plain slot %d has Len %d", label, fc.Name, pc, pl.Len)
				}
				switch pl.Op {
				case OpCallEnter:
					splices++
					if pl.D != 0 {
						tailSplices++
						heads = append(heads, int32(pc+1))
					}
				case OpCall:
					callee := m.Funcs[pl.Imm]
					if ok, _ := inlinable(callee); int(pl.Imm) != fc.ID && ok && len(callee.Plain) <= maxInlineLen &&
						len(fc.Plain)+len(callee.Plain) <= maxFuncGrowth {
						t.Errorf("%s/%s: pc %d: call to leaf %s (%d slots) left out of line",
							label, fc.Name, pc, callee.Name, len(callee.Plain))
					}
				case OpTailCall:
					// A frame's tail call restarts at pc 0 on the frame's
					// counter, a splice's at the head of the splice holding it
					// on the one counter its entry zeroes.
					h, wantD := heads[len(heads)-1], fc.NInts
					if fc.Src[pc].Fn == int32(fc.ID) {
						h = 0
					} else if enter := fc.Plain[h-1]; enter.B == enter.A+1 {
						wantD = enter.A
					}
					if pl.D != wantD || pl.E != h {
						t.Errorf("%s/%s: pc %d: tail call restarts at %d on slot %d, want %d on %d",
							label, fc.Name, pc, pl.E, pl.D, h, wantD)
					}
				case OpRetI, OpRetF, OpRetR, OpRetVoid:
					if pl.C != fc.NInts {
						t.Errorf("%s/%s: pc %d: return replays slot %d, want the frame's counter %d", label, fc.Name, pc, pl.C, fc.NInts)
					}
				case OpIRetN:
					if h := heads[len(heads)-1]; pl.C != fc.Plain[h-1].A {
						t.Errorf("%s/%s: pc %d: splice return replays slot %d, want %d", label, fc.Name, pc, pl.C, fc.Plain[h-1].A)
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
			var plans []Descent
			for _, h := range heads {
				walk := isWalk(m, fc.Src[h].Fn) && (h == 0 || fc.Src[h].PC == 0)
				head, plan := descentPlan(&fused, h)
				switch {
				case plan == nil && walk:
					t.Errorf("%s/%s: tree descent at pc %d has no descent plan", label, fc.Name, h)
					continue
				case plan == nil:
					continue
				case !walk:
					t.Errorf("%s/%s: descent plan at pc %d outside Barnes-Hut's tree descent", label, fc.Name, h)
				}
				head.D = int32(len(plans))
				plans = append(plans, *plan)
				copy(want[h+1:h+int32(head.Len)], fc.Plain[h+1:])
				want[h] = head
				census[OpDescend]++
				if h > 0 {
					enter := fc.Plain[h-1]
					g := head
					g.Op, g.Len, g.Cost, g.Args = OpEnterDescend, head.Len+1, head.Cost+enter.Cost, enter.Args
					want[h-1] = g
					census[OpEnterDescend]++
				}
			}
			if !reflect.DeepEqual(fc.Descents, plans) {
				t.Errorf("%s/%s: descent plans %+v, want %+v", label, fc.Name, fc.Descents, plans)
			}
			for pc := range fc.Code {
				if co := fc.Code[pc]; !reflect.DeepEqual(co, want[pc]) {
					t.Errorf("%s/%s: Code slot %d is %v len %d, want %v len %d",
						label, fc.Name, pc, co.Op, co.Len, want[pc].Op, want[pc].Len)
				}
			}
		}
		t.Logf("%s: %d groups, %d splices (%d self-tail-recursive)", label, groups, splices, tailSplices)
		if groups == 0 || splices == 0 {
			t.Errorf("%s: %d superinstruction groups, %d inline splices; want both", label, groups, splices)
		}
		return tailSplices
	}
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := apps.CompileWithSpecs(name, polgen.Space())
		if err != nil {
			t.Fatal(err)
		}
		// Barnes-Hut's walk and String's advancecell are spliced.
		if n, m := check(name+"/parallel", c.Parallel), check(name+"/generated", g.Parallel); (n > 0) != (name != apps.NameWater) || (m > 0) != (n > 0) {
			t.Errorf("%s: %d and %d self-tail-recursive splices", name, n, m)
		}
	}
	for op, n := range census {
		if n == 0 {
			t.Errorf("no %v group in any program", op)
		}
	}
}
