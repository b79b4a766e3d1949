package oblc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/simmach"
)

// genProgram produces a random OBL program whose parallel loop is
// guaranteed to commute by construction: every method updates fields only
// through a fixed per-field commutative reduction (+ or *) whose operand
// reads only the read-only field and scalar parameters, and helper calls
// are pure. The generator varies: field counts, update counts, method call
// chains (including a recursive helper, so Bounded has cycles to decline),
// loop nesting, and receiver selection.
func genProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	nfields := 1 + rng.Intn(4)
	nmethods := 1 + rng.Intn(3)
	useRecursion := rng.Intn(2) == 0
	nested := rng.Intn(2) == 0

	var b strings.Builder
	b.WriteString("extern interact(a: float, b: float): float cost 500;\n")
	b.WriteString("extern noise(i: int): float cost 60;\n")
	b.WriteString("param n: int = 24;\n")
	b.WriteString("class Obj {\n  pos: float;\n")
	ops := make([]string, nfields)
	for f := 0; f < nfields; f++ {
		b.WriteString(fmt.Sprintf("  f%d: float;\n", f))
		if rng.Intn(2) == 0 {
			ops[f] = "+"
		} else {
			ops[f] = "*"
		}
	}
	if useRecursion {
		b.WriteString(`  method depthcalc(k: int): float {
    if k <= 0 { return interact(this.pos, this.pos); }
    return this.depthcalc(k - 1) * 0.5;
  }
`)
	}
	// Methods: each updates a random nonempty subset of fields.
	for m := 0; m < nmethods; m++ {
		b.WriteString(fmt.Sprintf("  method m%d(o: Obj, w: float) {\n", m))
		if useRecursion && rng.Intn(2) == 0 {
			b.WriteString("    let d: float = this.depthcalc(2);\n")
		} else {
			b.WriteString("    let d: float = interact(this.pos, o.pos);\n")
		}
		updated := false
		for f := 0; f < nfields; f++ {
			if rng.Intn(2) == 0 && !(f == nfields-1 && !updated) {
				continue
			}
			updated = true
			target := "this"
			if rng.Intn(3) == 0 {
				target = "o"
			}
			if ops[f] == "+" {
				b.WriteString(fmt.Sprintf("    %s.f%d = %s.f%d + d * w;\n", target, f, target, f))
			} else {
				b.WriteString(fmt.Sprintf("    %s.f%d = %s.f%d * (1.0 + d * w * 0.001);\n", target, f, target, f))
			}
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")

	// The parallel function.
	b.WriteString("func compute(objs: Obj[], cnt: int) {\n")
	b.WriteString("  for i in 0..cnt {\n")
	indent := "    "
	closing := ""
	if nested {
		b.WriteString("    for j in 0..3 {\n")
		indent = "      "
		closing = "    }\n"
	}
	idxVar := "i"
	if nested {
		idxVar = "(i * 7 + j * 5)"
	}
	for m := 0; m < nmethods; m++ {
		b.WriteString(fmt.Sprintf("%sobjs[%s %% cnt].m%d(objs[(%s + %d) %% cnt], %s);\n",
			indent, idxVar, m, idxVar, m+1, weight(rng)))
	}
	b.WriteString(closing)
	b.WriteString("  }\n}\n")

	// main: init, run, print per-field sums.
	b.WriteString(`func main() {
  let objs: Obj[] = new Obj[n];
  for i in 0..n {
    objs[i] = new Obj();
    objs[i].pos = noise(i) * 4.0;
`)
	for f := 0; f < nfields; f++ {
		if ops[f] == "*" {
			b.WriteString(fmt.Sprintf("    objs[i].f%d = 1.0;\n", f))
		}
	}
	b.WriteString("  }\n  compute(objs, n);\n")
	for f := 0; f < nfields; f++ {
		b.WriteString(fmt.Sprintf("  let s%d: float = 0.0;\n", f))
		b.WriteString(fmt.Sprintf("  for i in 0..n { s%d = s%d + objs[i].f%d; }\n", f, f, f))
		b.WriteString(fmt.Sprintf("  print s%d;\n", f))
	}
	b.WriteString("}\n")
	return b.String()
}

func weight(rng *rand.Rand) string {
	return fmt.Sprintf("%.2f", 0.1+rng.Float64())
}

// TestFuzzPipeline compiles random commuting programs, and the fixed ones
// the generator cannot produce, and checks, for each: the loop
// parallelizes, every policy and the flag-dispatch build compute the
// serial results, and acquire counts agree between the multi-version and
// flagged builds.
func TestFuzzPipeline(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	if testing.Short() {
		seeds = seeds[:4]
	}
	type input struct{ name, src string }
	var inputs []input
	for _, seed := range seeds {
		inputs = append(inputs, input{fmt.Sprintf("seed%d", seed), genProgram(seed)})
	}
	// A value-returning synchronized method called in return position: a
	// caller that took over the outer lock would deadlock (the generator
	// emits no such call).
	held, err := os.ReadFile("../internal/obl/analysis/testdata/held_across_call.obl")
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"held_across_call", string(held)})
	for _, in := range inputs {
		src := in.src
		t.Run(in.name, func(t *testing.T) {
			c, err := Compile(src)
			if err != nil {
				t.Fatalf("compile: %v\nsource:\n%s", err, src)
			}
			parallel := false
			for _, rep := range c.Reports {
				if rep.Func == "compute" && rep.Parallel {
					parallel = true
				}
				if rep.Func == "compute" && !rep.Parallel {
					t.Fatalf("compute loop not parallel: %s\nsource:\n%s", rep.Reason, src)
				}
			}
			if !parallel {
				t.Fatalf("no report for compute loop")
			}
			serial, err := interp.Run(c.Serial, interp.Options{})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			want := parseAll(t, serial.Output)
			for _, procs := range []int{2, 5} {
				for _, policy := range []string{"original", "bounded", "aggressive", interp.PolicyDynamic} {
					opts := interp.Options{Procs: procs, Policy: policy, TargetSampling: simmach.Millisecond}
					label := fmt.Sprintf("%s p=%d", policy, procs)
					mres, err := interp.Run(c.Parallel, opts)
					if err != nil {
						t.Fatalf("%s: %v\nsource:\n%s", label, err, src)
					}
					fres, err := interp.Run(c.Flagged, opts)
					if err != nil {
						t.Fatalf("flagged %s: %v\nsource:\n%s", label, err, src)
					}
					for i, w := range want {
						for what, got := range map[string]float64{
							"multi":   parseAll(t, mres.Output)[i],
							"flagged": parseAll(t, fres.Output)[i],
						} {
							if math.Abs(got-w) > 1e-6*(1+math.Abs(w)) {
								t.Errorf("%s/%s out[%d] = %v, want %v\nsource:\n%s",
									label, what, i, got, w, src)
							}
						}
					}
					if policy != interp.PolicyDynamic {
						if mres.Counters.Acquires != fres.Counters.Acquires {
							t.Errorf("%s: multi acquires %d != flagged %d\nsource:\n%s",
								label, mres.Counters.Acquires, fres.Counters.Acquires, src)
						}
					}
				}
			}
		})
	}
}

func parseAll(t *testing.T, out []string) []float64 {
	t.Helper()
	vals := make([]float64, len(out))
	for i, s := range out {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("output %q not numeric", s)
		}
		vals[i] = v
	}
	return vals
}
