// Package interp executes compiled OBL programs on the simulated
// multiprocessor (internal/simmach), implementing the generated-code
// runtime the paper describes in §4:
//
//   - Serial sections execute on processor 0; parallel sections execute on
//     all processors, with iterations claimed dynamically from a shared
//     counter.
//   - A potential switch point occurs at each loop iteration: the generated
//     code polls the timer when it completes an iteration and tests for
//     expiration of the current sampling or production interval (§4.1).
//   - Policy switching is synchronous: when an interval expires, each
//     processor waits at a barrier until all processors arrive, so every
//     processor uses the same policy during each interval (§4.1).
//   - The dynamic feedback controller (internal/core) measures each
//     version's locking, waiting and execution time (§4.3) and selects the
//     policy with the least overhead for the production phase.
//
// A Run executes either with a static policy (one version, no
// instrumentation or polling — the paper's Original/Bounded/Aggressive
// baselines) or with dynamic feedback.
package interp

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
	"repro/internal/perturb"
	"repro/internal/simmach"
)

// PolicyDynamic selects dynamic feedback; other valid policies are the
// keys of each section's PolicyVersion map ("original", "bounded",
// "aggressive").
const PolicyDynamic = "dynamic"

// Options configures a run.
type Options struct {
	// Procs is the number of processors. Default 1. simmach.Config.Procs
	// states the supported range.
	Procs int
	// Policy is a static policy name or PolicyDynamic. Default dynamic.
	Policy string
	// Controller selects the dynamic feedback controller implementation:
	// core.KindRoundRobin (the paper's controller, the default) or
	// core.KindUCB (the bandit controller, which skips sampling policies
	// whose history proves they cannot win). Ignored for static policies.
	Controller string
	// TargetSampling and TargetProduction configure the dynamic feedback
	// intervals (defaults: 10ms and 100s, the paper's headline settings).
	TargetSampling   simmach.Time
	TargetProduction simmach.Time
	// EarlyCutoff, OrderByHistory and SpanExecutions enable the §4.5/§4.4
	// controller optimizations.
	EarlyCutoff    bool
	OrderByHistory bool
	SpanExecutions bool
	// AutoTuneProduction retunes the production interval from the §5
	// analysis at every production entry (see core.Config).
	AutoTuneProduction bool
	// AsyncSwitch disables the synchronous switch barrier (§4.1): the
	// processor that detects interval expiration performs the transition
	// alone and the others pick up the new version at their next claim.
	// Measurements then mix versions; this exists as an ablation of the
	// paper's synchronous-switching design decision.
	AsyncSwitch bool
	// Params overrides program parameters by name.
	Params map[string]int64
	// Perturb, when non-nil and non-empty, is a deterministic schedule of
	// environment perturbations applied to the simulated machine in virtual
	// time (internal/perturb): scheduled cost changes, per-processor
	// slowdowns, and injected background contention. The schedule is part
	// of the run's content address (CacheKey), so perturbed and unperturbed
	// runs never share a cache entry.
	Perturb *perturb.Schedule
	// InstrumentationCost is charged per acquire and per release in
	// instrumented (dynamic) runs for the counter updates of §4.3.
	// Default 20ns.
	InstrumentationCost simmach.Time
	// MaxSteps aborts runaway executions. Default 2e9 scheduler steps.
	MaxSteps int64
	// DetectRaces enables the Eraser-style dynamic race detector over
	// field and element accesses inside parallel sections (see race.go);
	// findings are returned in Result.Races. Off by default: detection
	// allocates tracking state and is meant for the differential testing
	// harness, not for measurement runs.
	DetectRaces bool
	// Engine selects the instruction executor. EngineVM (the default) is the
	// production engine: the program is compiled once to specialized
	// register bytecode, and a program vm.Compile rejects is an error.
	// EngineInterp is the reference oracle the differential tests and the
	// benchmark compare against: the direct IR interpreter. Both produce
	// byte-identical Results, so the choice never appears in cache keys.
	// Run makes an oracle run of every run the VM cannot take, and names
	// why (OracleReason): races, flags, a boxed extern, AsyncSwitch or a
	// Trace.
	Engine string
	// Trace, when set, receives every synchronization event of the
	// simulated machine (lock acquires, blocks, grants, releases, barrier
	// traffic) in virtual-time order.
	Trace func(simmach.TraceEvent)

	// ckHook, when set, invokes a checkpoint/restore test hook at every
	// iteration claim (see snapshot.go). Test-only; hooked runs are not
	// cacheable.
	ckHook *ckHook
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Policy == "" {
		o.Policy = PolicyDynamic
	}
	if o.TargetSampling <= 0 {
		o.TargetSampling = 10 * simmach.Millisecond
	}
	if o.TargetProduction <= 0 {
		o.TargetProduction = 100 * simmach.Second
	}
	if o.InstrumentationCost <= 0 {
		o.InstrumentationCost = 20
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 2e9
	}
	if o.Engine == "" {
		o.Engine = EngineVM
	}
	return o
}

// OracleReason names what makes a run of p under o an oracle run, or
// returns "" for a VM run. Only the oracle has the race detector, flag
// dispatch (§4.2) and boxed extern calls (an extern whose form has no
// unboxed opcode, vm.ExternForm.Unboxed), and only it yields before every
// release, as the runs that read other processors' state in host order
// need (AsyncSwitch's transition, Trace).
func OracleReason(p *ir.Program, o Options) string {
	switch {
	case o.Engine == EngineInterp:
		return "engine " + EngineInterp
	case o.DetectRaces:
		return "race detection"
	case p.NumFlagSites > 0:
		return "conditional sync sites"
	case o.AsyncSwitch:
		return "asynchronous switching"
	case o.Trace != nil:
		return "a trace"
	}
	for _, e := range p.Externs {
		if !vm.Intrinsics[e.Name].Form().Unboxed() {
			return "boxed extern " + e.Name
		}
	}
	return ""
}

// The section runtime's own costs, beside the machine's cost model
// (simmach.DefaultConfig, which every run uses).
const (
	// claimCost is charged per iteration claim (shared counter fetch-add).
	claimCost = 150 * simmach.Nanosecond
	// dispatchCost is charged per iteration in dynamic runs for the
	// multi-version switch dispatch (§4.2).
	dispatchCost = 60 * simmach.Nanosecond
	// forkCost is charged when a parallel section starts.
	forkCost = 10 * simmach.Microsecond
)

// Execution engines.
const (
	EngineVM     = "vm"
	EngineInterp = "interp"
)

// ExecutionStat describes one execution of a parallel section.
type ExecutionStat struct {
	Start, End simmach.Time
	Iterations int64
}

// SampleStat is one controller interval record with resolved names.
type SampleStat struct {
	Kind     string
	Version  int
	Label    string
	Start    simmach.Time
	End      simmach.Time
	Overhead float64
	LockOver float64
	WaitOver float64
}

// SwitchStat is one production-phase entry of a section's controller:
// after which sampling round, which version won, and when production began.
// Consecutive entries selecting different versions are re-adaptation
// events; the adaptivity experiments measure latency as the virtual time
// from an environment change to the first switch onto the newly best
// version.
type SwitchStat struct {
	Round   int
	Version int
	Label   string
	At      simmach.Time
}

// SectionStats aggregates a section's behaviour over a run.
type SectionStats struct {
	Name          string
	VersionLabels []string
	Executions    []ExecutionStat
	Samples       []SampleStat
	// Switches lists every production-phase entry of the section's dynamic
	// feedback controller (empty for static runs).
	Switches   []SwitchStat
	Iterations int64
	// Busy is the total processor time spent inside the section.
	Busy simmach.Time
	// Counters is the section's share of the machine counters.
	Counters simmach.Counters
	// ChosenVersion is the version most recently selected for production
	// (or the static version).
	ChosenVersion int
}

// Result of a run.
type Result struct {
	// Time is the program's virtual execution time.
	Time simmach.Time
	// Counters are the machine-wide totals (acquire/release pairs, failed
	// acquires, locking/waiting time — the quantities of Tables 3 and 8).
	Counters simmach.Counters
	Output   []string
	Sections []*SectionStats
	Steps    int64
	// Races holds the dynamic race detector's findings (only when
	// Options.DetectRaces was set).
	Races []RaceReport
}

// runtimeErr aborts execution through the scheduler.
type runtimeErr struct{ msg string }

// prep is the step interpreter's per-Program state, resolved once at load
// time: extern implementations and per-instruction virtual-cost tables.
// Its hot loop then indexes slices instead of hashing maps or re-deriving
// costs from the opcode switch. Programs are immutable after compilation,
// so the prepared form is built once per program, on its first oracle run,
// and shared by every concurrent one (the parallel experiment engine
// executes many runs of the same program at once).
type prep struct {
	// extFns[i] is the boxed adapter of Externs[i]'s implementation.
	extFns []func(args []Value) (Value, simmach.Time)
	// costs[funcID][pc] is the instruction's static virtual cost; for
	// OpCallExtern the extern's declared cost is folded in, so the runtime
	// only adds the dynamically-priced extra.
	costs [][]simmach.Time
}

// loadState is everything this package derives from a program once, each
// part on first use: the oracle's load-time tables, the content
// fingerprint, and the VM's compiled module (or the error compiling it
// returned). It lives in the program's Loaded slot, so dropping the
// program drops all of it.
type loadState struct {
	prepOnce sync.Once
	prep     *prep
	fpOnce   sync.Once
	fp       string
	vmOnce   sync.Once
	vmMod    *vm.Module
	vmErr    error
}

func loadStateOf(p *ir.Program) *loadState {
	return p.Loaded(func() any { return new(loadState) }).(*loadState)
}

// prepare resolves a program's load-time tables for the oracle.
func prepare(p *ir.Program) *prep {
	s := loadStateOf(p)
	s.prepOnce.Do(func() { s.prep = newPrep(p) })
	return s.prep
}

func newPrep(p *ir.Program) *prep {
	pr := &prep{
		extFns: make([]func([]Value) (Value, simmach.Time), len(p.Externs)),
		costs:  make([][]simmach.Time, len(p.Funcs)),
	}
	for i, e := range p.Externs {
		x, ok := vm.Intrinsics[e.Name]
		if !ok {
			// Run rejects such a program first (CheckExterns).
			panic(fmt.Sprintf("interp: extern %q has no implementation", e.Name))
		}
		pr.extFns[i] = boxed(x)
	}
	for fi, fn := range p.Funcs {
		costs := make([]simmach.Time, len(fn.Code))
		for pc, in := range fn.Code {
			c := simmach.Time(in.Cost())
			if in.Op == ir.OpCallExtern {
				c += simmach.Time(p.Externs[in.Imm].Cost)
			}
			costs[pc] = c
		}
		pr.costs[fi] = costs
	}
	return pr
}

// Run executes the program.
func Run(p *ir.Program, opts Options) (res *Result, err error) {
	opts = opts.withDefaults()
	if err := CheckExterns(p); err != nil {
		return nil, err
	}
	if opts.Engine != EngineVM && opts.Engine != EngineInterp {
		return nil, fmt.Errorf("interp: unknown engine %q", opts.Engine)
	}
	if why := OracleReason(p, opts); why != "" {
		if opts.ckHook != nil {
			return nil, fmt.Errorf("interp: a run with %s is an oracle run, and the reference oracle keeps no snapshot state; checkpoint a VM run", why)
		}
		opts.Engine = EngineInterp
	}
	if opts.Policy != PolicyDynamic {
		for _, sec := range p.Sections {
			if _, ok := sec.PolicyVersion[opts.Policy]; !ok {
				return nil, fmt.Errorf("interp: section %s has no version for policy %q", sec.Name, opts.Policy)
			}
		}
		if p.FlagPolicies != nil {
			if _, ok := p.FlagPolicies[opts.Policy]; !ok {
				return nil, fmt.Errorf("interp: flag-dispatch program has no flags for policy %q", opts.Policy)
			}
		}
	}
	if !core.ValidKind(opts.Controller) {
		return nil, fmt.Errorf("interp: unknown controller kind %q", opts.Controller)
	}
	mcfg := simmach.DefaultConfig(opts.Procs)
	rt := &runtime{
		prog:        p,
		opts:        opts,
		m:           simmach.New(mcfg),
		controllers: map[int]*core.Controller{},
		stats:       map[int]*SectionStats{},
		hook:        opts.ckHook,
	}
	if opts.DetectRaces {
		rt.race = newRaceDetector()
	}
	if !opts.Perturb.Empty() {
		tbl, err := opts.Perturb.Table(mcfg)
		if err != nil {
			return nil, fmt.Errorf("interp: perturbation schedule: %w", err)
		}
		if err := rt.m.SetParamTable(tbl); err != nil {
			return nil, fmt.Errorf("interp: perturbation schedule: %w", err)
		}
	}
	rt.m.Trace = opts.Trace
	rt.barrier = rt.m.NewBarrier(opts.Procs)
	if p.FlagPolicies != nil {
		// Serial code in a flag-dispatch program uses a fixed, correct flag
		// assignment: the static policy's, or Original's placement under
		// dynamic feedback (all placements are correct; flags only select
		// among them).
		if opts.Policy == PolicyDynamic {
			rt.baseFlags = p.FlagPolicies["original"]
		} else {
			rt.baseFlags = p.FlagPolicies[opts.Policy]
		}
	}
	rt.paramVals = make([]int64, len(p.ParamNames))
	for i, name := range p.ParamNames {
		rt.paramVals[i] = p.Params[name]
		if v, ok := opts.Params[name]; ok {
			rt.paramVals[i] = v
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtimeErr); ok {
				res, err = nil, fmt.Errorf("interp: %s", re.msg)
			} else {
				panic(r)
			}
		}
	}()
	rt.pool = make([]*worker, opts.Procs)
	if opts.Engine == EngineVM {
		mod, err := vmModuleFor(p)
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		for i := range rt.pool {
			vt := &vmTask{mod: mod}
			vt.worker = worker{rt: rt, ex: vt, isMain: i == 0}
			rt.pool[i] = &vt.worker
			if i == 0 {
				vt.push(p.MainID, -1, 0)
			}
		}
	} else {
		rt.prep = prepare(p)
		for i := range rt.pool {
			t := &task{}
			t.worker = worker{rt: rt, ex: t, isMain: i == 0}
			rt.pool[i] = &t.worker
			if i == 0 {
				t.pushCall(p.MainID, ir.NoReg)
			}
		}
	}
	rt.m.Start(0, rt.pool[0])
	if err := rt.m.Run(); err != nil {
		return nil, err
	}
	res = &Result{
		Time:     rt.m.MaxClock(),
		Counters: rt.m.TotalCounters(),
		Output:   rt.output,
		Steps:    rt.m.Steps(),
	}
	if rt.race != nil {
		res.Races = rt.race.reports
	}
	for _, sec := range p.Sections {
		st, ok := rt.stats[sec.ID]
		if !ok {
			continue
		}
		if ctl := rt.controllers[sec.ID]; ctl != nil {
			for _, s := range ctl.Samples() {
				m := s.Meas
				st.Samples = append(st.Samples, SampleStat{
					Kind:     s.Kind.String(),
					Version:  s.Policy,
					Label:    st.VersionLabels[s.Policy],
					Start:    simmach.Time(s.Start),
					End:      simmach.Time(s.End),
					Overhead: s.Overhead,
					LockOver: m.LockingOverhead(),
					WaitOver: m.WaitingOverhead(),
				})
			}
			for _, sw := range ctl.Switches() {
				st.Switches = append(st.Switches, SwitchStat{
					Round:   sw.Round,
					Version: sw.Policy,
					Label:   st.VersionLabels[sw.Policy],
					At:      simmach.Time(sw.At),
				})
			}
			st.ChosenVersion = ctl.BestKnownPolicy()
		}
		res.Sections = append(res.Sections, st)
	}
	return res, nil
}

type runtime struct {
	prog        *ir.Program
	prep        *prep // the oracle's load-time tables, nil in a VM run
	opts        Options
	m           *simmach.Machine
	paramVals   []int64
	output      []string
	controllers map[int]*core.Controller
	stats       map[int]*SectionStats
	barrier     *simmach.Barrier
	// baseFlags is the site-flag vector used outside parallel sections in
	// flag-dispatch programs.
	baseFlags []bool
	// pool[i] drives processor i for the whole run: pool[0] is the main
	// task, the rest are the section workers, reset and restarted by each
	// parallel section so frame and operand storage is allocated once per
	// run instead of once per section.
	pool []*worker
	// race is the dynamic race detector, nil unless Options.DetectRaces
	// (which makes the run an oracle run: only task.exec reports to it).
	race *raceDetector
	// hook is the test-only checkpoint/restore hook (Options.ckHook).
	hook *ckHook
}

func (rt *runtime) fail(format string, args ...any) {
	panic(failure(format, args...))
}

// failure is the runtimeErr rt.fail panics with. The VM's dispatch loop
// panics with it at the fault site instead of calling rt.fail, so the
// compiler sees that the path ends there (vmTask.exec).
func failure(format string, args ...any) runtimeErr {
	return runtimeErr{msg: fmt.Sprintf(format, args...)}
}

// maxArrayLen bounds the length of an array the simulated program makes:
// 16 times the largest array a bundled application makes at its parameter
// bounds (String's gridside², 2^20), so an oversized parameter fails the
// run instead of the host's allocator.
const maxArrayLen = 1 << 24

// arrayLenErr is the fault of a new-array length outside [0, maxArrayLen]
// in function fn; both engines' OpNewArr panic with it, so they fail with
// one message.
func arrayLenErr(fn string, n int64) runtimeErr {
	if n < 0 {
		return failure("%s: negative array length %d", fn, n)
	}
	return failure("%s: array length %d exceeds the limit of %d elements", fn, n, maxArrayLen)
}

func (rt *runtime) sectionStats(sec *ir.Section) *SectionStats {
	st, ok := rt.stats[sec.ID]
	if !ok {
		labels := make([]string, len(sec.Versions))
		for i, v := range sec.Versions {
			labels[i] = v.Label()
		}
		st = &SectionStats{Name: sec.Name, VersionLabels: labels}
		rt.stats[sec.ID] = st
	}
	return st
}

// controller returns (creating on demand) the persistent dynamic feedback
// controller of a section. Policies are the section's distinct versions;
// the early cut-off components follow the monotonicity argument of §4.5.
func (rt *runtime) controller(sec *ir.Section) *core.Controller {
	if c, ok := rt.controllers[sec.ID]; ok {
		return c
	}
	policies := make([]core.PolicyInfo, len(sec.Versions))
	for i, v := range sec.Versions {
		info := core.PolicyInfo{Name: v.Label()}
		if rt.opts.EarlyCutoff {
			label := v.Label()
			if strings.Contains(label, "original") {
				info.Cutoff = core.CutoffLocking
			}
			if strings.Contains(label, "aggressive") {
				info.Cutoff = core.CutoffWaiting
			}
		}
		policies[i] = info
	}
	c, err := core.NewCtl(rt.opts.Controller, core.Config{
		Policies:           policies,
		TargetSampling:     core.Nanos(rt.opts.TargetSampling),
		TargetProduction:   core.Nanos(rt.opts.TargetProduction),
		EarlyCutoff:        rt.opts.EarlyCutoff,
		OrderByHistory:     rt.opts.OrderByHistory,
		SpanExecutions:     rt.opts.SpanExecutions,
		AutoTuneProduction: rt.opts.AutoTuneProduction,
	})
	if err != nil {
		rt.fail("controller: %v", err) // kind was validated in Run
	}
	rt.controllers[sec.ID] = c
	return c
}

// sectionRun is the state of the active parallel section.
type sectionRun struct {
	rt         *runtime
	sec        *ir.Section
	stats      *SectionStats
	lo, hi     int64
	next       int64
	args       []Value
	versionIdx int
	dynamic    bool
	ctl        *core.Controller
	snap       []simmach.Counters // per-proc counters at phase start
	secSnap    []simmach.Counters // per-proc counters at section start
	finished   bool
	iterations int64
	startTime  simmach.Time
	// chunkNext and chunkRem are per-processor chunk cursors, allocated
	// lazily when a version with Chunk > 1 runs: a worker holding part of
	// a claimed chunk takes its next iteration locally without touching
	// the shared counter (and without paying the claim cost).
	chunkNext []int64
	chunkRem  []int64
}

// claimIter claims the next iteration for processor p under the active
// version's scheduling granularity. ok=false means no iterations remain
// for this worker and it should arrive at the barrier.
func (sr *sectionRun) claimIter(p *simmach.Proc) (iter int64, ok bool) {
	if sr.chunkRem != nil {
		// Drain any locally held chunk first, whatever version is active
		// now: a dynamic-feedback switch away from a chunked version must
		// not strand claimed-but-unexecuted iterations.
		if id := p.ID(); sr.chunkRem[id] > 0 {
			iter = sr.chunkNext[id]
			sr.chunkNext[id]++
			sr.chunkRem[id]--
			sr.iterations++
			return iter, true
		}
	}
	p.Advance(claimCost)
	if sr.next >= sr.hi {
		return 0, false
	}
	if chunk := int64(sr.sec.Versions[sr.versionIdx].Chunk); chunk > 1 {
		if sr.chunkRem == nil {
			sr.chunkNext = make([]int64, sr.rt.opts.Procs)
			sr.chunkRem = make([]int64, sr.rt.opts.Procs)
		}
		id := p.ID()
		take := chunk
		if take > sr.hi-sr.next {
			take = sr.hi - sr.next
		}
		sr.chunkNext[id] = sr.next + 1
		sr.chunkRem[id] = take - 1
		iter = sr.next
		sr.next += take
		sr.iterations++
		return iter, true
	}
	iter = sr.next
	sr.next++
	sr.iterations++
	return iter, true
}

// remaining counts unexecuted iterations: the unclaimed range plus every
// worker's locally held chunk remainder.
func (sr *sectionRun) remaining() int64 {
	rem := sr.hi - sr.next
	for _, r := range sr.chunkRem {
		rem += r
	}
	return rem
}

func (sr *sectionRun) resnap() {
	for i := range sr.snap {
		sr.snap[i] = sr.rt.m.Proc(i).Counters
	}
}

// measure computes the phase instrumentation delta summed over processors
// (§4.3). Execution time excludes barrier waiting, which belongs to the
// switching machinery rather than to the measured version.
func (sr *sectionRun) measure() core.Measurement {
	var m core.Measurement
	for i := range sr.snap {
		d := sr.rt.m.Proc(i).Counters.Sub(sr.snap[i])
		m.Acquires += d.Acquires
		m.FailedAcquires += d.FailedAcquires
		m.LockTime += core.Nanos(d.LockTime)
		m.WaitTime += core.Nanos(d.WaitTime)
		m.ExecTime += core.Nanos(d.Busy - d.BarrierWait)
	}
	return m
}

// onBarrierComplete runs exactly once per rendezvous, before any
// participant is released (synchronous switching, §4.1).
func (sr *sectionRun) onBarrierComplete(last simmach.Time) {
	if sr.remaining() <= 0 {
		// The section's iterations are exhausted: it ends here.
		if sr.dynamic {
			sr.ctl.EndExecution(core.Nanos(last), sr.measure())
		}
		sr.finished = true
		st := sr.stats
		st.Executions = append(st.Executions, ExecutionStat{
			Start: sr.startTime, End: last, Iterations: sr.iterations,
		})
		st.Iterations += sr.iterations
		for i := range sr.secSnap {
			d := sr.rt.m.Proc(i).Counters.Sub(sr.secSnap[i])
			st.Busy += d.Busy
			st.Counters = st.Counters.Add(d)
		}
		return
	}
	// An interval expired: complete the phase and switch versions.
	sr.ctl.CompletePhase(core.Nanos(last), sr.measure())
	sr.versionIdx = sr.ctl.CurrentPolicy()
	sr.resnap()
}

// frame is one activation record. Register storage lives in the owning
// task's shared arena (task.regStack); regs is the frame's window into it,
// re-pointed whenever the arena grows. Frames therefore allocate nothing
// on the hot call path once the arena has warmed up.
type frame struct {
	fn *ir.Func
	// costs is the function's precomputed per-instruction cost table
	// (prep.costs[funcID]), kept here so the dispatch loop indexes it
	// without an extra lookup.
	costs  []simmach.Time
	pc     int
	base   int // offset of the register window in task.regStack
	regs   []Value
	retDst ir.Reg
}

// task is the step interpreter (Options.Engine == EngineInterp): the
// executor that walks ir.Instr directly, one Value per register.
type task struct {
	worker
	frames []frame
	// regStack is the shared register arena backing every frame's window.
	regStack []Value
	// held is the task's current lock nest, maintained only when the race
	// detector is enabled. A lock is recorded before a (possibly blocking)
	// Acquire: a blocked processor executes nothing until it wakes already
	// owning the lock, so the early entry is never observed unheld.
	held []*simmach.Lock
	// extArgs is scratch storage for extern-call arguments, reused across
	// calls (intrinsics never retain their argument slice).
	extArgs []Value
}

// pushCall opens a zeroed activation record for funcID and returns its
// register window; the caller fills in the arguments. The window lives in
// the task's register arena, so no per-call allocation occurs once the
// arena and frame stack have reached their high-water marks, and the
// record is written in place in t.frames.
func (t *task) pushCall(funcID int, retDst ir.Reg) []Value {
	fn := t.rt.prog.Funcs[funcID]
	base := len(t.regStack)
	top := base + fn.NRegs
	grown := top > cap(t.regStack)
	t.regStack = grow(t.regStack, top, top)
	if grown {
		// The arena moved: re-point every live frame's window at it.
		for i := range t.frames {
			f := &t.frames[i]
			end := f.base + f.fn.NRegs
			f.regs = t.regStack[f.base:end:end]
		}
	}
	regs := t.regStack[base:top:top]
	clear(regs)
	if len(t.frames) == cap(t.frames) {
		t.frames = slices.Grow(t.frames, 1)
	}
	t.frames = t.frames[:len(t.frames)+1]
	fr := &t.frames[len(t.frames)-1]
	fr.fn, fr.costs, fr.pc = fn, t.rt.prep.costs[funcID], 0
	fr.base, fr.regs, fr.retDst = base, regs, retDst
	return regs
}

// popFrame closes the top activation record, releasing its arena window.
func (t *task) popFrame() {
	fr := &t.frames[len(t.frames)-1]
	t.regStack = t.regStack[:fr.base]
	t.frames = t.frames[:len(t.frames)-1]
}

func (t *task) depth() int { return len(t.frames) }

func (t *task) dropFrames() {
	t.frames = t.frames[:0]
	t.regStack = t.regStack[:0]
	t.held = t.held[:0]
}

// unhold removes the most recent occurrence of l from the lock nest.
func (t *task) unhold(l *simmach.Lock) {
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == l {
			t.held = append(t.held[:i], t.held[i+1:]...)
			return
		}
	}
}

func (t *task) openBody(funcID int, args []Value, iter int64) {
	regs := t.pushCall(funcID, ir.NoReg)
	n := copy(regs, args)
	regs[n] = IntVal(iter)
}

// enterSection handles OpParallel on the main task.
func (t *task) enterSection(p *simmach.Proc, fr *frame, in *ir.Instr) {
	args := make([]Value, len(in.Args))
	for i, r := range in.Args {
		args[i] = fr.regs[r]
	}
	t.fork(p, t.rt.prog.Sections[in.Imm], fr.regs[in.A].I, fr.regs[in.B].I, args)
}

// Worker phases between body executions.
const (
	wClaim = iota
	wBody
	wAfterBarrier
)

// executor is what the section protocol needs from an instruction
// executor (task, the step interpreter; vmTask, the bytecode VM). Everything
// else a processor does between instructions is the worker's.
type executor interface {
	// depth is the number of live activation records.
	depth() int
	// exec runs instructions of the top frame until a yield point. It
	// returns again=true exactly when the frames emptied down to the
	// worker's baseFrames: a body iteration, or the program, is over.
	exec(p *simmach.Proc) (st simmach.Status, again bool)
	// openBody opens an activation of a section body function: args fill
	// the leading parameters, iter the one after them.
	openBody(funcID int, args []Value, iter int64)
	// dropFrames empties the call stack (and the step interpreter's lock
	// nest), keeping its storage.
	dropFrames()
}

// worker drives one processor through the generated-code runtime of §4.1:
// the main worker executes serial code and joins each section on top of
// its serial stack; the others exist only inside a section. The instruction
// executor embeds it, so the dispatch loops reach this state directly.
type worker struct {
	rt     *runtime
	ex     executor
	isMain bool
	sr     *sectionRun
	// flags is the active site-flag vector (flag-dispatch programs): the
	// current version's inside a section, frozen per iteration at claim.
	flags []bool
	// baseFrames is the serial-frame depth below section body frames.
	baseFrames int
	// atBase is "the executor's depth equals baseFrames", tracked here so
	// Step decides between the section protocol and exec without asking
	// the executor: exec reports again=true exactly when it pops down to
	// baseFrames, and only fork, openBody and a finished section move the
	// worker off or onto it.
	atBase bool
	wphase int
	// executed counts instructions in the current Step; sync operations
	// yield first if any work has been done, so that shared-state effects
	// occur in exact virtual-time order.
	executed int
	acc      simmach.Time // unflushed compute cost
}

func (w *worker) flush(p *simmach.Proc) {
	if w.acc > 0 {
		p.Advance(w.acc)
		w.acc = 0
	}
}

// reset prepares a pooled worker for a new section run, keeping the
// executor's frame and register storage.
func (w *worker) reset(sr *sectionRun) {
	w.sr = sr
	w.ex.dropFrames()
	w.flags = nil
	w.baseFrames = 0
	w.atBase = true
	w.wphase = wClaim
	w.executed = 0
}

// Step implements simmach.Process.
//
//dfvet:noalloc
func (w *worker) Step(p *simmach.Proc) simmach.Status {
	rt := w.rt
	if rt.m.Steps() > rt.opts.MaxSteps {
		if ps := rt.m.PerturbState(); ps != "" {
			rt.fail("step budget exceeded (%d); possible livelock; %s", rt.opts.MaxSteps, ps)
		} else {
			rt.fail("step budget exceeded (%d); possible livelock", rt.opts.MaxSteps)
		}
	}
	w.executed = 0
	for {
		if w.atBase {
			if w.sr == nil {
				// Main task finished the program.
				w.flush(p)
				return simmach.Done
			}
			st, again := w.sectionStep(p)
			if !again {
				return st
			}
			continue
		}
		st, again := w.ex.exec(p)
		if !again {
			return st
		}
		w.atBase = true
	}
}

// sectionStep advances the worker-level state machine. It returns the
// machine status, or again=true to continue within this Step.
//
//dfvet:noalloc
func (w *worker) sectionStep(p *simmach.Proc) (simmach.Status, bool) {
	rt, sr := w.rt, w.sr
	if sr.finished {
		if w.isMain {
			w.sr = nil
			w.baseFrames = 0
			w.atBase = false
			return 0, true // resume serial code
		}
		w.flush(p)
		return simmach.Done, false
	}
	switch w.wphase {
	case wClaim:
		if w.executed > 0 {
			// Claims manipulate shared state: execute them at the start of
			// a dispatch so they happen in virtual-time order.
			w.flush(p)
			return simmach.Ready, false
		}
		// The claim begins the dispatch with nothing yet charged — the
		// checkpoint protocol's anchor point (simmach/checkpoint.go).
		if h := rt.hook; h != nil {
			if st, handled := h.atClaim(rt); handled {
				return st, false
			}
		}
		iter, ok := sr.claimIter(p)
		if !ok {
			p.BarrierArrive(rt.barrier)
			w.wphase = wAfterBarrier
			return simmach.Blocked, false
		}
		if sr.dynamic {
			p.Advance(dispatchCost)
		}
		v := sr.sec.Versions[sr.versionIdx]
		w.flags = v.Flags
		w.ex.openBody(v.FuncID, sr.args, iter)
		w.atBase = false
		w.wphase = wBody
		w.executed++
		return 0, true
	case wBody:
		// The body frames just emptied: the iteration is complete. This is
		// the potential switch point (§4.1).
		if sr.dynamic {
			w.flush(p)
			now := p.ReadTimer()
			if sr.ctl.Expired(core.Nanos(now)) {
				if rt.opts.AsyncSwitch {
					// Ablation mode: transition without a rendezvous; the
					// measurement mixes whatever versions ran meanwhile.
					sr.ctl.CompletePhase(core.Nanos(now), sr.measure())
					sr.versionIdx = sr.ctl.CurrentPolicy()
					sr.resnap()
					w.wphase = wClaim
					w.flush(p)
					return simmach.Ready, false
				}
				p.BarrierArrive(rt.barrier)
				w.wphase = wAfterBarrier
				return simmach.Blocked, false
			}
		}
		w.wphase = wClaim
		w.flush(p)
		return simmach.Ready, false
	case wAfterBarrier:
		w.wphase = wClaim
		return 0, true
	}
	rt.fail("bad worker phase %d", w.wphase)
	return simmach.Done, false
}

// fork starts a parallel section over [lo, hi) from the main worker: each
// executor's enterSection reads OpParallel's operands out of its own frame
// and hands them here.
func (w *worker) fork(p *simmach.Proc, sec *ir.Section, lo, hi int64, args []Value) {
	rt := w.rt
	p.Advance(forkCost)
	sr := &sectionRun{
		rt: rt, sec: sec, stats: rt.sectionStats(sec),
		lo: lo, hi: hi, next: lo, args: args,
		dynamic:   rt.opts.Policy == PolicyDynamic,
		snap:      make([]simmach.Counters, rt.opts.Procs),
		secSnap:   make([]simmach.Counters, rt.opts.Procs),
		startTime: p.Now(),
	}
	if sr.dynamic {
		sr.ctl = rt.controller(sec)
		sr.ctl.BeginExecution(core.Nanos(p.Now()))
		sr.versionIdx = sr.ctl.CurrentPolicy()
	} else {
		sr.versionIdx = sec.PolicyVersion[rt.opts.Policy]
	}
	sr.stats.ChosenVersion = sr.versionIdx
	if rt.race != nil {
		rt.race.enterSection(sec.Name)
	}
	rt.barrier.OnComplete = sr.onBarrierComplete
	for i := 1; i < rt.opts.Procs; i++ {
		rt.pool[i].reset(sr)
		rt.m.SetClock(i, p.Now())
		rt.m.Start(i, rt.pool[i])
	}
	for i := range sr.secSnap {
		sr.secSnap[i] = rt.m.Proc(i).Counters
	}
	sr.resnap()
	w.sr = sr
	w.baseFrames = w.ex.depth()
	w.atBase = true
	w.wphase = wClaim
}
