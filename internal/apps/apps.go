// Package apps contains the three benchmark applications of the paper's
// evaluation (§6) — Barnes-Hut, Water, and String — written in OBL, plus
// their input-scale presets.
//
// Each application is a serial object-based program with no pragmas or
// annotations; the compiler parallelizes it automatically via commutativity
// analysis and generates one version per synchronization optimization
// policy. The programs are faithful miniatures: they preserve the parallel
// section structure, the lock-usage topology, and the call-graph properties
// (in particular the recursions) that make the three policies generate
// different code in exactly the places the paper reports:
//
//   - Barnes-Hut: one_interaction performs two reduction updates on the
//     receiving body (Bounded coalesces them into one region); the
//     interaction loop invokes a recursive tree-descent (walk), so Bounded
//     declines the loop lift that Aggressive performs. FORCES therefore has
//     three distinct versions (Table 2/3 behaviour).
//   - Water INTERF: each pair operation updates three force components on
//     each of the two molecules; coalescing merges them per molecule, and
//     nothing lifts (two locks per iteration), so Bounded and Aggressive
//     generate identical code (§6.2).
//   - Water POTENG: a single global accumulator is updated once per pair
//     through a recursive energy expansion; Bounded declines every
//     enlargement (the region would contain the recursion), so Original and
//     Bounded coincide, while Aggressive lifts the accumulator lock out of
//     the pair loop and serializes the computation through false exclusion
//     (§6.2, Figure 7).
//   - String: rays are back-projected onto a shared velocity grid; cell
//     updates coalesce (Bounded ≡ Aggressive) but cannot lift (the lock
//     varies along the path). The paper's §6.3 text was unavailable in our
//     source; String is reproduced at the structural level (see
//     EXPERIMENTS.md).
//
// Substitutions (documented per DESIGN.md): the Barnes-Hut tree build and
// traversal are replaced by a recursive index descent over a body array
// with equivalent call-graph shape; expensive numeric kernels are modeled
// by extern calls with calibrated virtual costs (interact/force/term) plus
// work(n) for bulk computation. Input sizes are scaled down from the
// paper's (16,384 bodies / 512 molecules) and virtual costs calibrated so
// per-iteration times have paper-like magnitudes (milliseconds).
package apps

import (
	"fmt"

	"repro/internal/obl/polgen"
	"repro/oblc"
)

// BarnesHut is the OBL source of the Barnes-Hut miniature.
const BarnesHut = `
// Barnes-Hut: hierarchical N-body solver (miniature).
extern interact(a: float, b: float): float cost 1000;
extern noise(i: int): float cost 60;
extern work(n: int) cost 0;

param nbodies: int = 2048;
param listlen: int = 64;
param interwork: int = 20000;
param npasses: int = 2;
param serialwork: int = 50000;

class Body {
  pos: float;
  vel: float;
  sum: float;
  count: float;

  // walk stands in for the recursive Barnes-Hut tree descent: it selects
  // an interaction partner by binary descent over the body index space.
  method walk(lo: int, hi: int, k: int): int {
    if hi - lo <= 1 {
      return lo;
    }
    let mid: int = (lo + hi) / 2;
    if k % 2 == 0 {
      return this.walk(lo, mid, k / 2);
    }
    return this.walk(mid, hi, k / 2);
  }

  method one_interaction(b: Body) {
    work(interwork);
    let val: float = interact(this.pos, b.pos);
    this.sum = this.sum + val;
    this.count = this.count + 1.0;
  }

  method interactions(bs: Body[], nb: int, ll: int, me: int) {
    for k in 0..ll {
      let j: int = this.walk(0, nb, me * 31 + k * 17 + 7);
      this.one_interaction(bs[j]);
    }
  }

  method advance() {
    this.vel = this.vel + this.sum * 0.001;
    this.pos = this.pos + this.count * 0.0001;
  }
}

func forces(bodies: Body[], nb: int, ll: int) {
  for i in 0..nb {
    bodies[i].interactions(bodies, nb, ll, i);
  }
}

func advanceall(bodies: Body[], nb: int) {
  for i in 0..nb {
    bodies[i].advance();
  }
}

// treebuild is the serial section: rebuilding the spatial tree. The
// accumulation into a captured local keeps it serial.
func treebuild(bodies: Body[], nb: int, units: int): float {
  let t: float = 0.0;
  for i in 0..nb {
    work(units);
    t = t + noise(i);
  }
  return t;
}

func main() {
  let bodies: Body[] = new Body[nbodies];
  for i in 0..nbodies {
    bodies[i] = new Body();
    bodies[i].pos = noise(i) * 10.0;
    bodies[i].vel = noise(i + 1000000) * 0.1;
  }
  let tsum: float = 0.0;
  for pass in 0..npasses {
    tsum = tsum + treebuild(bodies, nbodies, serialwork);
    forces(bodies, nbodies, listlen);
    advanceall(bodies, nbodies);
  }
  let s: float = 0.0;
  let c: float = 0.0;
  for i in 0..nbodies {
    s = s + bodies[i].sum;
    c = c + bodies[i].count;
  }
  print s;
  print c;
  print tsum;
}
`

// Water is the OBL source of the Water miniature.
const Water = `
// Water: liquid-state molecular dynamics (miniature).
extern force(a: float, b: float): float cost 60000;
extern term(a: float, b: float): float cost 20000;
extern noise(i: int): float cost 60;
extern work(n: int) cost 0;

param nmol: int = 384;
param nsteps: int = 2;
param energydepth: int = 2;
param serialwork: int = 30000;

class Acc {
  sum: float;
}

class Mol {
  pos: float;
  fx: float;
  fy: float;
  fz: float;

  // pair computes the intermolecular forces of one molecule pair and
  // accumulates three components on each molecule (INTERF).
  method pair(o: Mol) {
    let f: float = force(this.pos, o.pos);
    this.fx = this.fx + f;
    this.fy = this.fy + f * 0.5;
    this.fz = this.fz + f * 0.25;
    o.fx = o.fx - f;
    o.fy = o.fy - f * 0.5;
    o.fz = o.fz - f * 0.25;
  }

  // pot_pair accumulates the pair's potential energy into the global
  // accumulator (POTENG).
  method pot_pair(o: Mol, acc: Acc, depth: int) {
    let e: float = energy(this.pos, o.pos, depth);
    acc.sum = acc.sum + e;
  }
}

// energy is a recursive series expansion of the pair potential; the
// recursion is what makes the Bounded policy decline to enlarge any
// critical region that would contain it.
func energy(a: float, b: float, k: int): float {
  if k <= 0 {
    return term(a, b);
  }
  return term(a, b) * 0.5 + energy(a, b, k - 1);
}

func interf(ms: Mol[], nm: int) {
  for i in 0..nm {
    for j in i + 1..nm {
      ms[i].pair(ms[j]);
    }
  }
}

func poteng(ms: Mol[], nm: int, acc: Acc, depth: int) {
  for i in 0..nm {
    for j in i + 1..nm {
      ms[i].pot_pair(ms[j], acc, depth);
    }
  }
}

// kinetic is the serial section between the parallel phases.
func kinetic(ms: Mol[], nm: int, units: int): float {
  let t: float = 0.0;
  for i in 0..nm {
    work(units);
    t = t + ms[i].fx * 0.001;
  }
  return t;
}

func main() {
  let ms: Mol[] = new Mol[nmol];
  for i in 0..nmol {
    ms[i] = new Mol();
    ms[i].pos = noise(i) * 6.0;
  }
  let acc: Acc = new Acc();
  let ke: float = 0.0;
  for step in 0..nsteps {
    interf(ms, nmol);
    ke = ke + kinetic(ms, nmol, serialwork);
    poteng(ms, nmol, acc, energydepth);
  }
  let fsum: float = 0.0;
  for i in 0..nmol {
    fsum = fsum + ms[i].fx + ms[i].fy + ms[i].fz;
  }
  print fsum;
  print acc.sum;
  print ke;
}
`

// String is the OBL source of the String miniature (seismic tomography:
// building a velocity model of the geology between two oil wells).
const String = `
// String: cross-well seismic tomography (miniature).
extern term(a: float, b: float): float cost 35000;
extern noise(i: int): float cost 60;
extern work(n: int) cost 0;

param gridside: int = 40;
param nrays: int = 1024;
param pathlen: int = 64;
param nrounds: int = 2;
param serialwork: int = 30000;

class Cell {
  slowness: float;
  resid: float;
  hits: float;

  // bump back-projects one ray's residual contribution onto the cell.
  method bump(d: float) {
    this.resid = this.resid + d;
    this.hits = this.hits + 1.0;
  }
}

class Ray {
  src: float;
  rcv: float;

  // advancecell is the recursive ray-stepping routine (refraction search);
  // its recursion bounds the regions the Bounded policy will build.
  method advancecell(k: int, g: int, depth: int): int {
    if depth <= 0 {
      let c: int = (k * 13 + 7) % (g * g);
      return c;
    }
    return this.advancecell(k + 1, g, depth - 1);
  }

  method project(cells: Cell[], g: int, plen: int, me: int) {
    for k in 0..plen {
      let c: int = this.advancecell(me * 29 + k * 11, g, 2);
      let d: float = term(this.src, this.rcv + tofloat(k));
      cells[c].bump(d);
    }
  }
}

func backproject(rays: Ray[], cells: Cell[], g: int, plen: int, nr: int) {
  for i in 0..nr {
    rays[i].project(cells, g, plen, i);
  }
}

// smooth is the serial regularization pass between rounds.
func smooth(cells: Cell[], nc: int, units: int): float {
  let t: float = 0.0;
  for i in 0..nc {
    work(units);
    t = t + cells[i].resid * 0.0001;
  }
  return t;
}

func main() {
  let nc: int = gridside * gridside;
  let cells: Cell[] = new Cell[nc];
  for i in 0..nc {
    cells[i] = new Cell();
    cells[i].slowness = 1.0 + noise(i) * 0.1;
  }
  let rays: Ray[] = new Ray[nrays];
  for i in 0..nrays {
    rays[i] = new Ray();
    rays[i].src = noise(i * 3) * 4.0;
    rays[i].rcv = noise(i * 3 + 1) * 4.0;
  }
  let sm: float = 0.0;
  for round in 0..nrounds {
    backproject(rays, cells, gridside, pathlen, nrays);
    sm = sm + smooth(cells, nc, serialwork);
  }
  let r: float = 0.0;
  let h: float = 0.0;
  for i in 0..nc {
    r = r + cells[i].resid;
    h = h + cells[i].hits;
  }
  print r;
  print h;
  print sm;
}
`

// App names.
const (
	NameBarnesHut = "barneshut"
	NameWater     = "water"
	NameString    = "string"
)

// Names lists the applications in the paper's order.
var Names = []string{NameBarnesHut, NameWater, NameString}

// Source returns the OBL source of the named application.
func Source(name string) (string, error) {
	switch name {
	case NameBarnesHut:
		return BarnesHut, nil
	case NameWater:
		return Water, nil
	case NameString:
		return String, nil
	default:
		return "", fmt.Errorf("apps: unknown application %q (have %v)", name, Names)
	}
}

// Compile compiles the named application.
func Compile(name string) (*oblc.Compiled, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	c, err := oblc.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("apps: %s: %w", name, err)
	}
	return c, nil
}

// CompileWithSpecs compiles the named application with generated policy
// versions registered for every polgen spec, beyond the paper's three.
func CompileWithSpecs(name string, specs []polgen.Spec) (*oblc.Compiled, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	c, err := oblc.CompileWithSpecs(src, specs)
	if err != nil {
		return nil, fmt.Errorf("apps: %s: %w", name, err)
	}
	return c, nil
}

// TestParams returns small input presets that keep unit-test runs fast.
func TestParams(name string) map[string]int64 {
	switch name {
	case NameBarnesHut:
		return map[string]int64{"nbodies": 64, "listlen": 24, "interwork": 20000, "npasses": 1, "serialwork": 4000}
	case NameWater:
		return map[string]int64{"nmol": 48, "nsteps": 1, "serialwork": 4000}
	case NameString:
		return map[string]int64{"gridside": 10, "nrays": 64, "pathlen": 20, "nrounds": 1, "serialwork": 4000}
	default:
		return nil
	}
}

// ParamRange is the range of values, bounds included, a program parameter
// takes from outside the process (dfserved's /run).
type ParamRange struct{ Min, Max int64 }

// ParamBounds returns the range of each of the application's parameters.
// The upper bounds sit well above every preset and keep a run's
// allocations and virtual time finite: the sizes bound the arrays main
// allocates, the counts bound the loops and the recursion, and the work
// amounts bound the virtual time each work call charges. The lower bounds
// are what the program needs: a size is at least 1 (a negative one is a
// negative array length, and String takes a cell index modulo gridside
// squared), a count or a work amount at least 0 (a negative one runs as 0
// would, under a cache entry of its own). The map is shared: callers must
// not modify it.
func ParamBounds(name string) map[string]ParamRange {
	return paramBounds[name]
}

var paramBounds = map[string]map[string]ParamRange{
	NameBarnesHut: {"nbodies": {1, 1 << 16}, "listlen": {0, 4096}, "interwork": {0, 1e7}, "npasses": {0, 64}, "serialwork": {0, 1e7}},
	NameWater:     {"nmol": {1, 8192}, "nsteps": {0, 64}, "energydepth": {0, 64}, "serialwork": {0, 1e7}},
	NameString:    {"gridside": {1, 1024}, "nrays": {1, 1 << 16}, "pathlen": {0, 4096}, "nrounds": {0, 64}, "serialwork": {0, 1e7}},
}

// SectionNames returns the application's parallel section names in
// execution order.
func SectionNames(name string) []string {
	switch name {
	case NameBarnesHut:
		return []string{"FORCES", "ADVANCEALL"}
	case NameWater:
		return []string{"INTERF", "POTENG"}
	case NameString:
		return []string{"BACKPROJECT"}
	default:
		return nil
	}
}
