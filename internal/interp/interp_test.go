package interp

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obl/vm"
	"repro/internal/simmach"
	"repro/oblc"
)

func compile(t testing.TB, src string) *oblc.Compiled {
	t.Helper()
	c, err := oblc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const calcSrc = `
extern sqrt(x: float): float cost 80;
func main() {
  let a: int = 6;
  let b: int = 7;
  print a * b;
  print a % 4;
  print 10 - 2 * 3;
  print tofloat(a) / 2.0;
  print sqrt(16.0);
  print toint(3.9);
  let flag: bool = a < b && !(a == b);
  print flag;
  if a > b { print 111; } else { print 222; }
  let s: int = 0;
  for i in 0..5 { s = s + i; }
  print s;
  let w: int = 1;
  while w < 100 { w = w * 3; }
  print w;
}
`

func TestSerialArithmetic(t *testing.T) {
	c := compile(t, calcSrc)
	res, err := Run(c.Serial, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"42", "2", "4", "3", "4", "3", "true", "222", "10", "243"}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
	if res.Time <= 0 {
		t.Error("virtual time not advancing")
	}
}

const objSrc = `
class Point {
  x: float;
  y: float;
  method mag2(): float {
    return this.x * this.x + this.y * this.y;
  }
}
func main() {
  let ps: Point[] = new Point[3];
  for i in 0..3 {
    ps[i] = new Point();
    ps[i].x = tofloat(i);
    ps[i].y = tofloat(i * 2);
  }
  let s: float = 0.0;
  for i in 0..3 {
    s = s + ps[i].mag2();
  }
  print s;
  print len(ps);
}
`

func TestObjectsAndMethods(t *testing.T) {
	c := compile(t, objSrc)
	res, err := Run(c.Serial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 0 + (1+4) + (4+16) = 25
	if res.Output[0] != "25" || res.Output[1] != "3" {
		t.Errorf("output = %v", res.Output)
	}
}

// bhSrc is the Barnes-Hut-shaped program used throughout: see oblc tests
// for the policy structure it produces. interact costs dominate, and sum
// updates accumulate under per-body locks.
const bhSrc = `
extern interact(a: float, b: float): float cost 4000;
extern noise(i: int): float cost 60;
param n: int = 48;

class Body {
  pos: float;
  sum: float;
  count: float;
  method refine(b: Body, depth: int): float {
    if depth <= 0 {
      return interact(this.pos, b.pos);
    }
    return this.refine(b, depth - 1);
  }
  method one_interaction(b: Body, depth: int) {
    let val: float = this.refine(b, depth);
    this.sum = this.sum + val;
    this.count = this.count + 1.0;
  }
  method interactions(bs: Body[], cnt: int, depth: int) {
    for k in 0..cnt {
      this.one_interaction(bs[k], depth);
    }
  }
}

func forces(bodies: Body[], cnt: int) {
  for i in 0..cnt {
    bodies[i].interactions(bodies, cnt, 1);
  }
}

func total(bodies: Body[], cnt: int): float {
  let s: float = 0.0;
  for i in 0..cnt {
    s = s + bodies[i].sum + bodies[i].count;
  }
  return s;
}

func main() {
  let bodies: Body[] = new Body[n];
  for i in 0..n {
    bodies[i] = new Body();
    bodies[i].pos = noise(i) * 10.0;
  }
  forces(bodies, n);
  print total(bodies, n);
}
`

func outputFloat(t *testing.T, res *Result, i int) float64 {
	t.Helper()
	if i >= len(res.Output) {
		t.Fatalf("output too short: %v", res.Output)
	}
	v, err := strconv.ParseFloat(res.Output[i], 64)
	if err != nil {
		t.Fatalf("output[%d] = %q not a float", i, res.Output[i])
	}
	return v
}

func TestParallelMatchesSerialAllPolicies(t *testing.T) {
	c := compile(t, bhSrc)
	sres, err := Run(c.Serial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := outputFloat(t, sres, 0)
	for _, policy := range []string{"original", "bounded", "aggressive", "dynamic"} {
		for _, procs := range []int{1, 4} {
			res, err := Run(c.Parallel, Options{Procs: procs, Policy: policy})
			if err != nil {
				t.Fatalf("%s/%d: %v", policy, procs, err)
			}
			got := outputFloat(t, res, 0)
			// Commuting float reductions may reassociate; results must
			// agree to rounding.
			if math.Abs(got-want) > 1e-6*math.Abs(want) {
				t.Errorf("%s/%d: result %v, want %v", policy, procs, got, want)
			}
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	c := compile(t, bhSrc)
	t1, err := Run(c.Parallel, Options{Procs: 1, Policy: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(c.Parallel, Options{Procs: 8, Policy: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	speedup := t1.Time.Seconds() / t8.Time.Seconds()
	if speedup < 4 {
		t.Errorf("8-proc speedup = %.2f, want > 4 (t1=%v t8=%v)", speedup, t1.Time, t8.Time)
	}
}

func TestLockingOverheadOrdering(t *testing.T) {
	// Locking overhead is monotonically nonincreasing from Original to
	// Bounded to Aggressive (§4.5).
	c := compile(t, bhSrc)
	var acquires []int64
	for _, policy := range []string{"original", "bounded", "aggressive"} {
		res, err := Run(c.Parallel, Options{Procs: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		acquires = append(acquires, res.Counters.Acquires)
	}
	if !(acquires[0] > acquires[1] && acquires[1] > acquires[2]) {
		t.Errorf("acquire counts not strictly decreasing: %v", acquires)
	}
	// Original performs two acquire/release pairs per interaction; Bounded
	// one; Aggressive one per body.
	const n = 48
	if acquires[0] != 2*n*n {
		t.Errorf("original acquires = %d, want %d", acquires[0], 2*n*n)
	}
	if acquires[1] != n*n {
		t.Errorf("bounded acquires = %d, want %d", acquires[1], n*n)
	}
	if acquires[2] != n {
		t.Errorf("aggressive acquires = %d, want %d", acquires[2], n)
	}
}

func TestDynamicFeedbackSelectsLowOverheadVersion(t *testing.T) {
	c := compile(t, bhSrc)
	res, err := Run(c.Parallel, Options{
		Procs: 4, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 1 {
		t.Fatalf("sections = %d", len(res.Sections))
	}
	sec := res.Sections[0]
	if sec.Name != "FORCES" {
		t.Errorf("section = %q", sec.Name)
	}
	if len(sec.Samples) < 3 {
		t.Fatalf("samples = %d, want at least one per version (%v)", len(sec.Samples), sec.VersionLabels)
	}
	// In this workload Aggressive has the least overhead; the production
	// phase must use it.
	var prod *SampleStat
	for i := range sec.Samples {
		if sec.Samples[i].Kind == "production" || (sec.Samples[i].Kind == "partial" && prod == nil) {
			prod = &sec.Samples[i]
		}
	}
	if prod == nil {
		t.Fatalf("no production sample: %+v", sec.Samples)
	}
	if !strings.Contains(prod.Label, "aggressive") {
		t.Errorf("production version = %q, want aggressive (samples %+v)", prod.Label, sec.Samples)
	}
}

func TestDynamicCloseToBestStatic(t *testing.T) {
	c := compile(t, bhSrc)
	best, err := Run(c.Parallel, Options{Procs: 8, Policy: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(c.Parallel, Options{Procs: 8, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Run(c.Parallel, Options{Procs: 8, Policy: "original"})
	if err != nil {
		t.Fatal(err)
	}
	// At this deliberately tiny scale the sections are only a few sampling
	// intervals long, so the sampling cost is a large fraction of the run;
	// the paper-scale gap (a few percent) is asserted in internal/apps.
	if dyn.Time.Seconds() > 2.0*best.Time.Seconds() {
		t.Errorf("dynamic %v too far from best %v", dyn.Time, best.Time)
	}
	if worst.Time.Seconds() < dyn.Time.Seconds() {
		t.Errorf("original %v unexpectedly faster than dynamic %v", worst.Time, dyn.Time)
	}
}

// potengSrc reproduces the POTENG shape: one global accumulator. Under
// Aggressive the lifted lock serializes the whole computation.
const potengSrc = `
extern term(a: float, b: float): float cost 1500;
extern noise(i: int): float cost 60;
param n: int = 40;

class Acc {
  sum: float;
}
class Mol {
  pos: float;
  method pot_pair(o: Mol, acc: Acc, k: int) {
    let e: float = energy(this.pos, o.pos, k);
    acc.sum = acc.sum + e;
  }
}

func energy(a: float, b: float, k: int): float {
  if k <= 0 {
    return term(a, b);
  }
  return term(a, b) + energy(a, b, k - 1);
}

func poteng(ms: Mol[], cnt: int, acc: Acc) {
  for i in 0..cnt {
    for j in 0..cnt {
      if j > i {
        ms[i].pot_pair(ms[j], acc, 2);
      }
    }
  }
}

func main() {
  let ms: Mol[] = new Mol[n];
  for i in 0..n {
    ms[i] = new Mol();
    ms[i].pos = noise(i) * 6.0;
  }
  let acc: Acc = new Acc();
  poteng(ms, n, acc);
  print acc.sum;
}
`

func TestAggressiveFalseExclusionSerializes(t *testing.T) {
	c := compile(t, potengSrc)
	agg1, err := Run(c.Parallel, Options{Procs: 1, Policy: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	agg8, err := Run(c.Parallel, Options{Procs: 8, Policy: "aggressive"})
	if err != nil {
		t.Fatal(err)
	}
	bnd8, err := Run(c.Parallel, Options{Procs: 8, Policy: "bounded"})
	if err != nil {
		t.Fatal(err)
	}
	aggSpeedup := agg1.Time.Seconds() / agg8.Time.Seconds()
	if aggSpeedup > 2 {
		t.Errorf("aggressive 8-proc speedup = %.2f, want ≤ 2 (false exclusion should serialize)", aggSpeedup)
	}
	if bnd8.Time.Seconds() > 0.7*agg8.Time.Seconds() {
		// Bounded must clearly beat Aggressive at 8 procs.
		t.Errorf("bounded %v not clearly faster than aggressive %v at 8 procs", bnd8.Time, agg8.Time)
	}
	// Waiting overhead dominates for Aggressive.
	if agg8.Counters.WaitTime < 4*agg8.Counters.LockTime {
		t.Errorf("aggressive waiting %v vs locking %v: expected waiting-dominated",
			agg8.Counters.WaitTime, agg8.Counters.LockTime)
	}
}

func TestDynamicAvoidsSerializingPolicy(t *testing.T) {
	c := compile(t, potengSrc)
	dyn, err := Run(c.Parallel, Options{Procs: 8, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	bnd, err := Run(c.Parallel, Options{Procs: 8, Policy: "bounded"})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Time.Seconds() > 1.6*bnd.Time.Seconds() {
		t.Errorf("dynamic %v too far from bounded %v", dyn.Time, bnd.Time)
	}
	sec := dyn.Sections[0]
	var prod *SampleStat
	for i := range sec.Samples {
		if sec.Samples[i].Kind == "production" || (prod == nil && sec.Samples[i].Kind == "partial") {
			prod = &sec.Samples[i]
		}
	}
	if prod == nil || !strings.Contains(prod.Label, "original/bounded") {
		t.Errorf("production label = %+v, want original/bounded", prod)
	}
}

func TestSectionStatsPopulated(t *testing.T) {
	c := compile(t, bhSrc)
	res, err := Run(c.Parallel, Options{Procs: 4, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sec := res.Sections[0]
	if len(sec.Executions) != 1 {
		t.Fatalf("executions = %d, want 1", len(sec.Executions))
	}
	if sec.Iterations != 48 {
		t.Errorf("iterations = %d, want 48", sec.Iterations)
	}
	ex := sec.Executions[0]
	if ex.End <= ex.Start {
		t.Errorf("execution span [%v, %v]", ex.Start, ex.End)
	}
	if sec.Busy <= 0 || sec.Counters.Acquires == 0 {
		t.Errorf("busy %v acquires %d", sec.Busy, sec.Counters.Acquires)
	}
}

func TestDeterminism(t *testing.T) {
	c := compile(t, bhSrc)
	r1, err := Run(c.Parallel, Options{Procs: 6, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c.Parallel, Options{Procs: 6, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.Counters != r2.Counters || r1.Steps != r2.Steps {
		t.Errorf("nondeterministic runs: %v/%v vs %v/%v", r1.Time, r1.Counters, r2.Time, r2.Counters)
	}
}

func TestUnknownExternRejected(t *testing.T) {
	c := compile(t, `
extern mystery(x: float): float cost 10;
func main() { print mystery(1.0); }
`)
	_, err := Run(c.Serial, Options{})
	if err == nil {
		t.Fatal("unknown extern accepted")
	}
	for name := range vm.Intrinsics {
		if !strings.Contains(err.Error(), " "+name) {
			t.Errorf("the error does not list intrinsic %q: %v", name, err)
		}
	}
}

// TestMisdeclaredExternRejected: a call of an extern declared with another
// signature than its implementation's form is refused by both engines
// before anything runs. The oracle read a float argument declared int as
// zero, and a missing argument panicked the host.
func TestMisdeclaredExternRejected(t *testing.T) {
	for _, decl := range []string{
		"extern sqrt(x: int): float cost 10;\nfunc main() { print sqrt(16); }",
		"extern pow(x: float): float cost 10;\nfunc main() { print pow(2.0); }",
		"extern noise(i: int): int cost 10;\nfunc main() { print noise(3); }",
		"extern work(n: float) cost 0;\nfunc main() { work(3.0); }",
	} {
		c := compile(t, decl)
		for _, engine := range []string{EngineInterp, EngineVM} {
			_, err := Run(c.Serial, Options{Engine: engine})
			if err == nil || !strings.Contains(err.Error(), "does not match its implementation's signature") {
				t.Errorf("%s, engine %s: got %v, want the signature error", decl, engine, err)
			}
		}
	}
}

// TestRuntimeErrors pins each runtime fault's whole message, which both
// engines must give word for word: the function, and for a nil receiver
// the pc of the instruction after it, are where the oracle's dispatch
// loop reports the fault from.
func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src string
		params    map[string]int64
		want      string
	}{
		{"div0", `func main() { let a: int = 0; print 1 / a; }`, nil, "interp: main: integer division by zero"},
		{"mod0", `func main() { let a: int = 0; print 1 % a; }`, nil, "interp: main: integer modulo by zero"},
		{"nil", `class C { v: int; } func main() { let c: C; print c.v; }`, nil, "interp: main: pc 2: nil dereference"},
		{"nil store", `class C { v: int; } func main() { let c: C; c.v = 1; }`, nil, "interp: main: pc 3: nil dereference"},
		{"oob", `func main() { let a: int[] = new int[2]; print a[5]; }`, nil, "interp: main: index 5 out of range [0,2)"},
		{"oob store", `func main() { let a: int[] = new int[2]; a[2] = 7; }`, nil, "interp: main: index 2 out of range [0,2)"},
		{"neglen", `func main() { let n: int = 0 - 3; let a: int[] = new int[n]; print len(a); }`, nil,
			"interp: main: negative array length -3"},
		{"hugelen", `param n: int = 4; func main() { let a: int[] = new int[n]; print len(a); }`,
			map[string]int64{"n": 1e15}, "interp: main: array length 1000000000000000 exceeds the limit of 16777216 elements"},
		{"overflow", `func f(n: int): int { return f(n + 1) + 1; } func main() { print f(0); }`, nil,
			"interp: f: call stack overflow"},
		{"tail overflow", `func f(n: int): int { if n < 0 { return 0; } return f(n + 1); } func main() { print f(0); }`, nil,
			"interp: f: call stack overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compile(t, tc.src)
			for _, engine := range []string{EngineVM, EngineInterp} {
				_, err := Run(c.Serial, Options{Engine: engine, Params: tc.params})
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: err = %v, want %q", engine, err, tc.want)
				}
			}
		})
	}
}

func TestParamOverride(t *testing.T) {
	c := compile(t, `
param n: int = 3;
func main() { print n * 2; }
`)
	res, err := Run(c.Serial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "6" {
		t.Errorf("default run output = %v", res.Output)
	}
	res, err = Run(c.Serial, Options{Params: map[string]int64{"n": 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "20" {
		t.Errorf("override run output = %v", res.Output)
	}
}

func TestStaticPolicyMissingVersion(t *testing.T) {
	c := compile(t, bhSrc)
	if _, err := Run(c.Parallel, Options{Policy: "nonexistent"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestWorkExternChargesVirtualTime(t *testing.T) {
	c := compile(t, `
extern work(n: int) cost 0;
func main() { work(1000000); }
`)
	res, err := Run(c.Serial, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < simmach.Millisecond {
		t.Errorf("time = %v, want ≥ 1ms from work(1e6)", res.Time)
	}
}

func TestEarlyCutoffReducesSampling(t *testing.T) {
	c := compile(t, bhSrc)
	full, err := Run(c.Parallel, Options{Procs: 4, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Run(c.Parallel, Options{Procs: 4, Policy: PolicyDynamic,
		TargetSampling: simmach.Millisecond, EarlyCutoff: true, OrderByHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	// With cut-off enabled the run must not be slower by more than noise,
	// and must still compute the same result.
	if cut.Output[0] != full.Output[0] {
		t.Errorf("outputs differ: %v vs %v", cut.Output, full.Output)
	}
}
