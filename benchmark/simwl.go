package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obl/ir"
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

// cell is one simulation: an application, its inputs and the run options.
type cell struct {
	app    string
	serial bool
	opts   interp.Options
	// group and role place an adapt cell (probeAdapt) in its comparison: the
	// cells of one group differ only in role (a static policy, "rr" or "ucb").
	group, role string
}

// id names the cell by everything that determines its result.
func (c cell) id() string {
	var b strings.Builder
	policy := c.opts.Policy
	if c.serial {
		policy = "serial"
	}
	fmt.Fprintf(&b, "%s/%s", c.app, policy)
	if c.opts.Controller != "" {
		fmt.Fprintf(&b, "-%s", c.opts.Controller)
	}
	fmt.Fprintf(&b, "/p%d", max(c.opts.Procs, 1))
	if c.opts.Perturb != nil {
		fmt.Fprintf(&b, "/%s", c.opts.Perturb.Name)
	}
	keys := make([]string, 0, len(c.opts.Params))
	for k := range c.opts.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "/%s=%d", k, c.opts.Params[k])
	}
	return b.String()
}

// jitter returns v moved by up to ±frac of itself.
func jitter(r *rand.Rand, v int64, frac float64) int64 {
	return v + int64(math.Round(float64(v)*frac*(2*r.Float64()-1)))
}

// workJitter: the virtual-work parameters (the argument of the zero-host-
// cost work extern) move by ±10 % with the seed. That changes virtual
// timing, contention and every result, but not how many instructions the
// host executes, so a window's numbers stay comparable between seeds. The
// size parameters that set the host cost stay put: jittering them by the
// same amount moved op_p95_ms, which follows the heaviest cell, by more
// than the metric's bound allows between seeds.
const workJitter = 0.10

var workParams = map[string]bool{"interwork": true, "serialwork": true}

// seeded copies params with the seed's jitter applied.
func seeded(r *rand.Rand, params map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(params))
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys) // fixed draw order, so a seed always yields the same inputs
	for _, k := range keys {
		out[k] = params[k]
		if workParams[k] {
			out[k] = jitter(r, params[k], workJitter)
		}
	}
	return out
}

// computeCells: Barnes-Hut at two sizes. ~64 interactions of pure VM work
// per lock pair (aggressive lifts the lock out of the interaction loop), so
// the scheduler sees a few thousand steps per op and the engine millions of
// instructions.
func computeCells(r *rand.Rand, small bool) []cell {
	var out []cell
	sizes := []int64{320, 224}
	if small {
		sizes = []int64{48}
	}
	for _, n := range sizes {
		base := map[string]int64{"nbodies": n, "listlen": 64, "interwork": 20000, "npasses": 1, "serialwork": 50000}
		p := seeded(r, base)
		out = append(out,
			cell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 1, Policy: "aggressive", Params: p}},
			cell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 8, Policy: "aggressive", Params: p}},
			cell{app: apps.NameBarnesHut, opts: interp.Options{Procs: 16, Policy: "bounded", Params: p}},
			cell{app: apps.NameBarnesHut, serial: true, opts: interp.Options{Params: p}},
		)
	}
	return out
}

// syncCells: Water and String under the fine-grain policies: one lock pair
// per few dozen instructions.
func syncCells(r *rand.Rand, small bool) []cell {
	nmol, nrays := int64(144), int64(320)
	if small {
		nmol, nrays = 24, 48
	}
	wp := seeded(r, map[string]int64{"nmol": nmol, "nsteps": 1, "serialwork": 30000})
	sp := seeded(r, map[string]int64{"gridside": 40, "nrays": nrays, "pathlen": 64, "nrounds": 1, "serialwork": 30000})
	return []cell{
		{app: apps.NameWater, opts: interp.Options{Procs: 8, Policy: "original", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 16, Policy: "original", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 8, Policy: "bounded", Params: wp}},
		{app: apps.NameWater, opts: interp.Options{Procs: 16, Policy: "bounded", Params: wp}},
		{app: apps.NameString, opts: interp.Options{Procs: 16, Policy: "original", Params: sp}},
		{app: apps.NameString, opts: interp.Options{Procs: 8, Policy: "original", Params: sp}},
	}
}

var adaptRoles = []string{"original", "bounded", "aggressive", "rr", "ucb"}

// adaptCells: the four perturb scenarios as the adapt-* experiments
// configure them (internal/bench/adaptivity.go), and the three apps
// unperturbed at p=8, each under the three static policies and both
// controllers. Sizes are fixed: they are chosen to straddle the scenarios'
// change points in virtual time.
func adaptCells(r *rand.Rand, small bool) []cell {
	type group struct {
		name, app string
		params    map[string]int64
		sched     *perturb.Schedule
		tune      func(*interp.Options)
	}
	water := func(nmol, nsteps int64) map[string]int64 {
		return map[string]int64{"nmol": nmol, "nsteps": nsteps, "energydepth": 2, "serialwork": 4000}
	}
	groups := []group{
		{"crossover", apps.NameWater, water(48, 24), perturb.Crossover(), func(o *interp.Options) { o.OrderByHistory = true }},
		{"ramp", apps.NameWater, water(48, 24), perturb.Ramp(), func(o *interp.Options) {
			o.TargetProduction = 60 * simmach.Millisecond
			o.SpanExecutions = true
		}},
		{"periodic", apps.NameWater, water(32, 40), perturb.Periodic(), nil},
		{"skew", apps.NameBarnesHut, map[string]int64{"nbodies": 256, "listlen": 24, "interwork": 20000, "npasses": 8, "serialwork": 4000},
			perturb.Skew(), func(o *interp.Options) { o.OrderByHistory = true }},
		{"plain-barneshut", apps.NameBarnesHut, map[string]int64{"nbodies": 96, "listlen": 24, "interwork": 20000, "npasses": 4, "serialwork": 4000}, nil, nil},
		{"plain-water", apps.NameWater, water(40, 6), nil, nil},
		{"plain-string", apps.NameString, map[string]int64{"gridside": 10, "nrays": 96, "pathlen": 20, "nrounds": 4, "serialwork": 4000}, nil, nil},
	}
	if small {
		groups = groups[:1]
	}
	var out []cell
	for _, g := range groups {
		params := seeded(r, g.params)
		for _, role := range adaptRoles {
			o := interp.Options{
				Procs:            8,
				Policy:           role,
				Params:           params,
				Perturb:          g.sched,
				TargetSampling:   simmach.Millisecond,
				TargetProduction: 40 * simmach.Millisecond,
			}
			switch role {
			case "rr":
				o.Policy, o.Controller = interp.PolicyDynamic, core.KindRoundRobin
			case "ucb":
				o.Policy, o.Controller = interp.PolicyDynamic, core.KindUCB
			}
			if g.tune != nil {
				g.tune(&o)
			}
			out = append(out, cell{app: g.app, opts: o, group: g.name, role: role})
		}
	}
	return out
}

// simWorld is a set-up sim-* workload.
type simWorld struct {
	name  string // the workload
	cells []cell
	progs []*ir.Program
	// refs holds each cell's result under the reference engine, in the
	// cache's canonical encoding; refRes the decoded results.
	refs   [][]byte
	refRes []*interp.Result
}

// newSimWorld compiles the apps afresh, runs every cell once under the
// step interpreter for its reference result, and takes each program
// through its VM profiling run and one specialised run.
func newSimWorld(name string, cells []cell) (*simWorld, error) {
	w := &simWorld{name: name, cells: cells}
	compiled := map[string]*oblc.Compiled{}
	warmed := map[*ir.Program]bool{}
	for _, c := range cells {
		cc, ok := compiled[c.app]
		if !ok {
			var err error
			if cc, err = apps.Compile(c.app); err != nil {
				return nil, err
			}
			compiled[c.app] = cc
		}
		prog := cc.Parallel
		if c.serial {
			prog = cc.Serial
		}
		ref := c.opts
		ref.Engine = interp.EngineInterp
		res, err := interp.Run(prog, ref)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", c.id(), err)
		}
		enc, err := simcache.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		w.progs = append(w.progs, prog)
		w.refs = append(w.refs, enc)
		w.refRes = append(w.refRes, res)
		if !warmed[prog] {
			warmed[prog] = true
			for i := 0; i < 2; i++ {
				if _, err := interp.Run(prog, c.opts); err != nil {
					return nil, fmt.Errorf("warm-up run of %s: %w", c.id(), err)
				}
			}
		}
	}
	return w, nil
}

// world turns the cells into an op list in seeded order.
func (w *simWorld) world(r *rand.Rand) *world {
	ops := make([]op, len(w.cells))
	for i := range w.cells {
		i := i
		ops[i] = op{name: w.cells[i].id(), run: func(sc scope) (func() error, error) {
			var res *interp.Result
			var err error
			sc.call("interp.run", func() { res, err = interp.Run(w.progs[i], w.cells[i].opts) })
			if err != nil {
				return nil, err
			}
			return func() error {
				enc, err := simcache.EncodeResult(res)
				if err != nil {
					return err
				}
				if !bytes.Equal(enc, w.refs[i]) {
					return fmt.Errorf("VM result differs from the reference engine's")
				}
				return nil
			}, nil
		}}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &world{ops: ops, layer: w.layer, digests: w.digests, close: func() {}}
}

// digests maps each cell, keyed by workload and cell id (which spells out
// the seed's parameters), to the SHA-256 of its reference encoding.
func (w *simWorld) digests() map[string]string {
	out := map[string]string{}
	for i, c := range w.cells {
		sum := sha256.Sum256(w.refs[i])
		out[w.name+"|"+c.id()] = hex.EncodeToString(sum[:])
	}
	return out
}

// layer derives the simulated counts (exact, from the reference results;
// every measured op was checked equal to them) and the host-time ratios.
func (w *simWorld) layer(st *windowStats, out metricSet) {
	n := float64(len(w.cells))
	var steps, acquires, failed, vprocNS float64
	for i, res := range w.refRes {
		steps += float64(res.Steps)
		acquires += float64(res.Counters.Acquires)
		failed += float64(res.Counters.FailedAcquires)
		vprocNS += float64(res.Time) * float64(max(w.cells[i].opts.Procs, 1))
	}
	hostNS := float64(st.meanLat)
	out.set("interp.steps_per_op", steps/n)
	out.set("simmach.acquires_per_op", acquires/n)
	if acquires > 0 {
		out.set("simmach.failed_acquire_share", failed/(failed+acquires))
	}
	if hostNS > 0 {
		out.set("interp.host_ns_per_vstep", hostNS/(steps/n))
		out.set("interp.vsec_per_host_s", (vprocNS/n)/hostNS)
		// The share of an op's host time that lock pairs account for, at
		// the per-pair cost the probe measured: the ceiling on what a
		// scheduler or lock speed-up can save on this workload.
		out.set("simmach.sync_share", out["simmach.ns_per_lock_pair"].Value*(acquires/n)/hostNS)
	}
	drift := 0
	if committed, err := loadDigests(); err == nil {
		for key, d := range w.digests() {
			if want, ok := committed[key]; ok && want != d {
				drift++
			}
		}
	}
	out.set("interp.digest_drift_cells", float64(drift))
}

// adaptLayer reports the paper's quality claim on simulated time, which
// repeats exactly: how close each controller's virtual time comes to the
// best static policy's, and how fast round-robin re-adapts on crossover.
func (w *simWorld) adaptLayer(out metricSet) {
	type entry struct {
		res  *interp.Result
		cell cell
	}
	groups := map[string]map[string]entry{}
	var order []string
	for i, c := range w.cells {
		if groups[c.group] == nil {
			groups[c.group] = map[string]entry{}
			order = append(order, c.group)
		}
		groups[c.group][c.role] = entry{w.refRes[i], c}
	}
	logRR, logUCB := 0.0, 0.0
	var samples, switches, dynRuns float64
	var sampleNS, sectionNS float64
	for _, g := range order {
		m := groups[g]
		best := m["original"].res.Time
		for _, role := range []string{"bounded", "aggressive"} {
			best = min(best, m[role].res.Time)
		}
		logRR += math.Log(float64(m["rr"].res.Time) / float64(best))
		logUCB += math.Log(float64(m["ucb"].res.Time) / float64(best))
		for _, role := range []string{"rr", "ucb"} {
			dynRuns++
			for _, sec := range m[role].res.Sections {
				switches += float64(len(sec.Switches))
				for _, smp := range sec.Samples {
					if smp.Kind == "sampling" {
						samples++
						sampleNS += float64(smp.End - smp.Start)
					}
				}
				for _, e := range sec.Executions {
					sectionNS += float64(e.End - e.Start)
				}
			}
		}
	}
	k := float64(len(order))
	out.set("core.dyn_over_best", math.Exp(logRR/k))
	out.set("core.dyn_ucb_over_best", math.Exp(logUCB/k))
	out.set("core.samples_per_run", samples/dynRuns)
	out.set("core.switches_per_run", switches/dynRuns)
	if sectionNS > 0 {
		out.set("core.sampling_share", sampleNS/sectionNS)
	}
	if m, ok := groups["crossover"]; ok {
		if d, ok := readaptLatency(m["original"].res, m["bounded"].res, m["aggressive"].res, m["rr"].res,
			m["rr"].cell.opts.Perturb.FirstChangeAt()); ok {
			out.set("core.readapt_virtual_ms", float64(d)/float64(simmach.Millisecond))
		}
	}
}

// readaptLatency is the virtual time from the environment change to the
// first production phase of dyn's POTENG section on the version the best
// post-change static policy uses (as bench.AdaptCrossover measures it).
func readaptLatency(orig, bounded, aggr, dyn *interp.Result, boundary simmach.Time) (simmach.Time, bool) {
	section := func(res *interp.Result) *interp.SectionStats {
		for _, sec := range res.Sections {
			if sec.Name == "POTENG" {
				return sec
			}
		}
		return nil
	}
	meanAfter := func(sec *interp.SectionStats) simmach.Time {
		var sum simmach.Time
		n := 0
		for i, e := range sec.Executions {
			if i > 0 && e.Start >= boundary {
				sum += e.End - e.Start
				n++
			}
		}
		if n == 0 {
			return math.MaxInt64
		}
		return sum / simmach.Time(n)
	}
	var bestSec *interp.SectionStats
	for _, res := range []*interp.Result{orig, bounded, aggr} {
		sec := section(res)
		if sec == nil {
			return 0, false
		}
		if bestSec == nil || meanAfter(sec) < meanAfter(bestSec) {
			bestSec = sec
		}
	}
	dynSec := section(dyn)
	if dynSec == nil {
		return 0, false
	}
	for _, sw := range dynSec.Switches {
		if sw.At >= boundary && sw.Version == bestSec.ChosenVersion {
			return sw.At - boundary, true
		}
	}
	return 0, false
}

func simSetup(name string, cfg config) (*world, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	cells := computeCells(r, cfg.small)
	if name == "sim-sync" {
		cells = syncCells(r, cfg.small)
	}
	sw, err := newSimWorld(name, cells)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		sw.refs[0][len(sw.refs[0])/2] ^= 1
	}
	return sw.world(r), nil
}
