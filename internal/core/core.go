// Package core implements the dynamic feedback controller — the paper's
// primary contribution — as pure, time-source-agnostic logic.
//
// A controller manages one parallel section for which the compiler (or the
// programmer, through the public dynfb package) produced several versions,
// one per optimization policy. The generated code alternately performs
// sampling phases and production phases: each sampling phase runs every
// version for a fixed target sampling interval and measures its overhead;
// each production phase runs the version with the least measured overhead
// for a fixed target production interval; the computation then resamples to
// adapt to changes in the environment (§1, §4).
//
// The controller is driven by a runtime (the simulated-machine interpreter
// in internal/interp, or the wall-clock goroutine runtime in dynfb) that
// owns the clock and the instrumentation counters:
//
//	ctl.BeginExecution(now)
//	for each potential switch point:
//	    if ctl.Expired(now) { // after the synchronous switch barrier:
//	        ctl.CompletePhase(now, phaseMeasurement)
//	        // run version ctl.CurrentPolicy() from here on
//	    }
//	ctl.EndExecution(now, partialMeasurement)
//
// The controller implements the paper's measurement model (§4.3: overhead =
// (locking time + waiting time) / execution time, always in [0,1]), the
// early cut-off and policy-ordering optimizations (§4.5), and the
// "intervals spanning multiple executions of the parallel section"
// extension the paper proposes in §4.4.
//
// There is one Controller. Which version a sampling round tries next is
// the only part with two answers — the paper's round-robin, or the
// confidence-bound bandit of ucb.go — and NewCtl's kind picks between them.
package core

import (
	"fmt"
	"math"
)

// Nanos is a duration or instant in nanoseconds. The controller never reads
// a clock; callers supply instants from whatever time source they use
// (virtual simulator time or wall-clock time).
type Nanos int64

// Phase identifies what the section is currently executing.
type Phase int

const (
	// Idle means the section is not executing.
	Idle Phase = iota
	// Sampling means the section is measuring one policy's overhead.
	Sampling
	// Production means the section is running the best sampled policy.
	Production
)

func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Sampling:
		return "sampling"
	case Production:
		return "production"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Measurement is the instrumentation a runtime collects during one phase
// (§4.3). ExecTime is the total processor time spent executing the section
// during the phase, summed over processors; as in the paper, it includes
// the locking and waiting time.
type Measurement struct {
	Acquires       int64 // successful acquire/release pairs
	FailedAcquires int64 // failed attempts to acquire a held lock
	LockTime       Nanos // time executing acquire/release constructs
	WaitTime       Nanos // time spinning on held locks
	ExecTime       Nanos // total execution time across processors
}

// Add returns m + o component-wise.
func (m Measurement) Add(o Measurement) Measurement {
	return Measurement{
		Acquires:       m.Acquires + o.Acquires,
		FailedAcquires: m.FailedAcquires + o.FailedAcquires,
		LockTime:       m.LockTime + o.LockTime,
		WaitTime:       m.WaitTime + o.WaitTime,
		ExecTime:       m.ExecTime + o.ExecTime,
	}
}

// LockingOverhead is the fraction of execution time spent in successful
// acquire and release constructs.
func (m Measurement) LockingOverhead() float64 {
	return clamp01(ratio(m.LockTime, m.ExecTime))
}

// WaitingOverhead is the fraction of execution time spent waiting for locks
// held by other processors.
func (m Measurement) WaitingOverhead() float64 {
	return clamp01(ratio(m.WaitTime, m.ExecTime))
}

// Overhead is the total overhead: the locking overhead plus the waiting
// overhead, divided by the execution time — always between zero and one
// (§4.3). The policy with the lowest total overhead is the best.
func (m Measurement) Overhead() float64 {
	return clamp01(ratio(m.LockTime+m.WaitTime, m.ExecTime))
}

func ratio(num, den Nanos) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CutoffComponent names the overhead component whose near-absence makes a
// policy unbeatable, enabling the §4.5 early cut-off. For the paper's
// synchronization policies, locking overhead never increases and waiting
// overhead never decreases from Original toward Aggressive; so if Original
// shows almost no locking overhead, or Aggressive almost no waiting
// overhead, no other policy can do significantly better.
type CutoffComponent int

const (
	// CutoffNone disables the early cut-off for this policy.
	CutoffNone CutoffComponent = iota
	// CutoffLocking cuts off when the policy's locking overhead is tiny
	// (appropriate for the policy with minimal waiting overhead, e.g.
	// Original).
	CutoffLocking
	// CutoffWaiting cuts off when the policy's waiting overhead is tiny
	// (appropriate for the policy with minimal locking overhead, e.g.
	// Aggressive).
	CutoffWaiting
)

// PolicyInfo describes one policy (one generated version).
type PolicyInfo struct {
	// Name is used in reports and traces.
	Name string
	// Cutoff, when early cut-off is enabled, names the component that must
	// be near zero for this policy to be declared unbeatable right after
	// its own sample.
	Cutoff CutoffComponent
}

// Config parameterizes a controller.
type Config struct {
	// Policies lists the section's versions. At least one is required.
	Policies []PolicyInfo
	// TargetSampling is the target sampling interval (§4.1). The effective
	// interval may be longer: processors only poll at potential switch
	// points. Default 10ms — the value the paper's experiments use.
	TargetSampling Nanos
	// TargetProduction is the target production interval. Default 100s, a
	// value long enough that each section execution performs one sampling
	// phase and one production phase, as in the paper's headline numbers.
	TargetProduction Nanos
	// EarlyCutoff enables the §4.5 optimization: stop sampling as soon as a
	// sampled policy's cutoff component is below cutoffThreshold.
	EarlyCutoff bool
	// OrderByHistory enables the §4.5 ordering optimization: sample first
	// the policy that won the previous round, and if its overhead is still
	// acceptable — within historyMargin of its previous winning overhead —
	// go directly to the production phase.
	OrderByHistory bool
	// SpanExecutions enables the §4.4 extension: sampling and production
	// intervals span multiple executions of the parallel section instead of
	// restarting the sampling phase at every section entry.
	SpanExecutions bool
	// AutoTuneProduction retunes the production interval at every
	// production-phase entry using the §5 analysis: the overhead drift rate
	// estimated from the sample history determines P_opt (eq. 9). The
	// paper computes P_opt offline; this closes the loop at run time.
	AutoTuneProduction bool
}

// Defaults used when Config fields are zero.
const (
	DefaultTargetSampling   = Nanos(10e6)  // 10ms
	DefaultTargetProduction = Nanos(100e9) // 100s
)

// SampleKind distinguishes the records in the controller's history.
type SampleKind int

const (
	// SampleSampling records a completed sampling interval.
	SampleSampling SampleKind = iota
	// SampleProduction records a completed production interval.
	SampleProduction
	// SamplePartial records a phase cut short by the end of the section.
	SamplePartial
)

func (k SampleKind) String() string {
	switch k {
	case SampleSampling:
		return "sampling"
	case SampleProduction:
		return "production"
	case SamplePartial:
		return "partial"
	default:
		return fmt.Sprintf("SampleKind(%d)", int(k))
	}
}

// Sample is one completed (or cut-short) interval: which policy ran, over
// what span, and what overhead was measured. The time-series figures in the
// paper's evaluation (Figures 5, 8, 9) are plots of these records.
type Sample struct {
	Kind     SampleKind
	Policy   int
	Start    Nanos
	End      Nanos
	Meas     Measurement
	Overhead float64
}

// PolicyStats accumulates per-policy history across rounds.
type PolicyStats struct {
	TimesSampled  int
	TimesChosen   int
	LastOverhead  float64
	TotalOverhead float64
}

// MeanOverhead returns the mean sampled overhead, or 0 if never sampled.
func (s PolicyStats) MeanOverhead() float64 {
	if s.TimesSampled == 0 {
		return 0
	}
	return s.TotalOverhead / float64(s.TimesSampled)
}

// Controller is the dynamic feedback state machine for one parallel
// section: the sampling → production → resampling phase machine, with the
// choice of which version to sample next delegated to its selector (see
// NewCtl). It is not safe for concurrent use; runtimes must call it from a
// single goroutine or under a lock (the paper's generated code switches
// policies under a barrier, which serializes these calls naturally).
type Controller struct {
	cfg   Config
	sel   selector
	phase Phase

	current   int       // index of the policy now executing
	order     []int     // policies sampled this round, in sampling order
	roundOver []float64 // overhead each measured this round (NaN if not yet); set by startRound
	round     int       // completed sampling rounds

	phaseElapsed Nanos // elapsed in current phase across executions (span mode)
	segStart     Nanos // start of the current in-execution segment
	acc          Measurement

	lastWinner   int
	lastWinnerOK bool
	lastWinOver  float64

	// tunedProduction is the auto-tuned production interval, when enabled
	// and derivable from the history.
	tunedProduction Nanos

	samples  []Sample
	stats    []PolicyStats
	switches []Switch
}

// Switch records one production-phase entry: after which sampling round,
// which policy won, and the instant production began. Consecutive entries
// selecting different policies are the re-adaptation events the adaptivity
// experiments measure latency from (§2.3, §5: time from an environment
// change to the controller producing with the newly best policy).
type Switch struct {
	Round  int
	Policy int
	At     Nanos
}

// Config returns the controller's (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Phase returns the current phase.
func (c *Controller) Phase() Phase { return c.phase }

// CurrentPolicy returns the index of the version that must execute now.
func (c *Controller) CurrentPolicy() int { return c.current }

// PolicyName returns the name of policy i.
func (c *Controller) PolicyName(i int) string { return c.cfg.Policies[i].Name }

// Rounds returns the number of completed sampling rounds.
func (c *Controller) Rounds() int { return c.round }

// Samples returns the full history of completed intervals.
func (c *Controller) Samples() []Sample { return c.samples }

// Switches returns every production-phase entry, in order. The caller must
// not mutate the slice.
func (c *Controller) Switches() []Switch { return c.switches }

// Stats returns per-policy aggregate statistics.
func (c *Controller) Stats() []PolicyStats {
	out := make([]PolicyStats, len(c.stats))
	copy(out, c.stats)
	return out
}

// TargetInterval returns the target length of the current phase.
func (c *Controller) TargetInterval() Nanos {
	if c.phase == Production {
		if c.cfg.AutoTuneProduction && c.tunedProduction > 0 {
			return c.tunedProduction
		}
		return c.cfg.TargetProduction
	}
	return c.cfg.TargetSampling
}

// Expired reports whether the current phase's target interval has elapsed
// at instant now. Runtimes call this at every potential switch point after
// polling the timer (§4.1).
func (c *Controller) Expired(now Nanos) bool {
	if c.phase == Idle {
		return false
	}
	return now >= c.Deadline()
}

// Deadline returns the instant at which the current phase's target
// interval expires. Concurrent runtimes may cache it (e.g. atomically)
// after each phase transition so that switch-point polling does not need
// to synchronize with the controller.
func (c *Controller) Deadline() Nanos {
	return c.segStart + (c.TargetInterval() - c.phaseElapsed)
}

// BeginExecution notes that the parallel section starts executing at
// instant now. In the default mode this starts a fresh sampling round, as
// the paper's implementation does ("our current implementation always
// executes a sampling phase at the beginning of each parallel section",
// §4.4). With SpanExecutions, an in-flight phase resumes instead.
func (c *Controller) BeginExecution(now Nanos) {
	if c.cfg.SpanExecutions && c.phase != Idle {
		c.segStart = now
		return
	}
	c.startRound(now)
}

func (c *Controller) startRound(now Nanos) {
	c.order = c.order[:0]
	for i := range c.roundOver {
		c.roundOver[i] = math.NaN()
	}
	c.phase = Sampling
	c.sample(c.sel.first(c), now)
}

// sample makes policy the round's next sampling target.
func (c *Controller) sample(policy int, now Nanos) {
	c.order = append(c.order, policy)
	c.open(policy, now)
}

// open makes policy the executing version and starts its interval at now.
func (c *Controller) open(policy int, now Nanos) {
	c.current = policy
	c.segStart = now
	c.phaseElapsed = 0
	c.acc = Measurement{}
}

// CompletePhase finishes the current phase at instant now with the phase's
// measured instrumentation delta, records it, and transitions the
// controller. Runtimes call it after all processors have synchronized at
// the switch barrier, so that the measurement reflects exactly one policy
// (§4.1, synchronous switching). It returns the policy to execute next.
func (c *Controller) CompletePhase(now Nanos, m Measurement) int {
	if c.phase == Idle {
		panic("core: CompletePhase while idle")
	}
	total := c.acc.Add(m)
	if c.phase == Production {
		c.record(SampleProduction, now, total)
		// Periodic resampling: start a new round to adapt to changes in the
		// environment.
		c.round++
		c.startRound(now)
		return c.current
	}
	over := c.record(SampleSampling, now, total)
	switch {
	case c.shouldCutOff(total):
		c.enterProduction(now, c.current)
	case c.cfg.OrderByHistory && c.lastWinnerOK && len(c.order) == 1 &&
		c.current == c.lastWinner && over <= c.lastWinOver+historyMargin:
		// The previous winner, sampled first, still performs acceptably:
		// skip the rest of the sampling phase (§4.5).
		c.enterProduction(now, c.current)
	default:
		if next, ok := c.sel.next(c); ok {
			c.sample(next, now)
		} else {
			c.enterProduction(now, c.sel.winner(c))
		}
	}
	return c.current
}

func (c *Controller) shouldCutOff(m Measurement) bool {
	if !c.cfg.EarlyCutoff {
		return false
	}
	switch c.cfg.Policies[c.current].Cutoff {
	case CutoffLocking:
		return m.LockingOverhead() < cutoffThreshold
	case CutoffWaiting:
		return m.WaitingOverhead() < cutoffThreshold
	default:
		return false
	}
}

// bestSampled returns the policy with the lowest overhead measured in the
// current round, or -1 if none has been measured; ties resolve to the
// earlier sampled, matching the paper's arbitrary selection among equals
// (§5).
func (c *Controller) bestSampled() int {
	best := -1
	for _, p := range c.order {
		if o := c.roundOver[p]; !math.IsNaN(o) && (best < 0 || o < c.roundOver[best]) {
			best = p
		}
	}
	return best
}

// enterProduction starts a production phase running policy, which this
// round has measured.
func (c *Controller) enterProduction(now Nanos, policy int) {
	c.phase = Production
	c.open(policy, now)
	c.stats[policy].TimesChosen++
	c.switches = append(c.switches, Switch{Round: c.round, Policy: policy, At: now})
	if c.cfg.AutoTuneProduction {
		if rec, ok := c.RecommendProduction(); ok {
			c.tunedProduction = rec
		}
	}
	c.lastWinner = policy
	c.lastWinnerOK = true
	c.lastWinOver = c.roundOver[policy]
}

// EndExecution notes that the parallel section finished at instant now,
// with the instrumentation delta since the last phase boundary. In the
// default mode the in-flight phase is recorded as partial and the
// controller goes idle; with SpanExecutions the phase is suspended and
// resumes at the next BeginExecution.
func (c *Controller) EndExecution(now Nanos, m Measurement) {
	if c.phase == Idle {
		return
	}
	if c.cfg.SpanExecutions {
		c.acc = c.acc.Add(m)
		c.phaseElapsed += now - c.segStart
		c.segStart = now
		return
	}
	if total := c.acc.Add(m); total.ExecTime > 0 {
		c.record(SamplePartial, now, total)
	}
	c.phase = Idle
	c.acc = Measurement{}
	c.phaseElapsed = 0
}

// record appends the interval ending at now to the history and returns its
// overhead. A sampling interval — completed, or cut short by the end of
// the section — also informs the per-policy stats, the round and the
// selector.
func (c *Controller) record(kind SampleKind, now Nanos, total Measurement) float64 {
	over := total.Overhead()
	c.samples = append(c.samples, Sample{
		Kind: kind, Policy: c.current, Start: c.segStart - c.phaseElapsed, End: now, Meas: total, Overhead: over,
	})
	if c.phase == Sampling {
		st := &c.stats[c.current]
		st.TimesSampled++
		st.LastOverhead = over
		st.TotalOverhead += over
		c.roundOver[c.current] = over
		c.sel.observe(c.current, over)
	}
	return over
}

// LastWinner returns the policy most recently selected for a production
// phase, and whether any production phase has been entered yet.
func (c *Controller) LastWinner() (int, bool) {
	return c.lastWinner, c.lastWinnerOK
}

// LastWinnerOverhead returns the overhead the most recent production
// winner measured when it was chosen (or the seeded value after Seed). It
// is meaningful only while LastWinner reports true.
func (c *Controller) LastWinnerOverhead() float64 { return c.lastWinOver }

// Seed is policy knowledge learned elsewhere — by a previous process, or
// by a fleet peer — used to warm-start a controller (see Controller.Seed).
type Seed struct {
	// Winner is the policy that won the previous process's last
	// production selection.
	Winner int
	// WinnerOverhead is the overhead the winner measured when chosen; the
	// OrderByHistory acceptability test compares against it.
	WinnerOverhead float64
	// Stats optionally restores the per-policy aggregates. When non-nil it
	// must have exactly one entry per policy, in policy order.
	Stats []PolicyStats
}

// Seed primes the controller with knowledge learned elsewhere — the §4.5
// ordering optimization generalized across process restarts and across a
// fleet. The seeded winner is sampled first in the next round, and with
// OrderByHistory the rest of that round is skipped while the winner stays
// within historyMargin of its seeded overhead, so a warm controller
// reaches production after a single sampling interval instead of one per
// policy. If the environment has drifted and the winner's overhead
// degraded, the acceptability test fails and the round falls back to full
// sampling: stale knowledge costs one interval, never a wrong steady-state
// choice.
//
// A controller that has chosen a production winner of its own refuses the
// seed: knowledge measured here wins over knowledge carried in. Before
// that, a seed may arrive at any time. An idle controller (the restart
// path) takes the stats wholesale and its selector learns from them. A
// running one (the fleet path: a peer's record arrives mid-round) only
// fills in the stats of policies it has not sampled itself, and its
// selector keeps to what it has measured.
func (c *Controller) Seed(seed Seed) error {
	if c.lastWinnerOK {
		return fmt.Errorf("core: Seed on a controller that already has a winner")
	}
	if seed.Winner < 0 || seed.Winner >= len(c.cfg.Policies) {
		return fmt.Errorf("core: seed winner %d out of range [0,%d)", seed.Winner, len(c.cfg.Policies))
	}
	if o := seed.WinnerOverhead; math.IsNaN(o) || o < 0 || o > 1 {
		return fmt.Errorf("core: seed winner overhead %v outside [0,1]", o)
	}
	if seed.Stats != nil {
		if len(seed.Stats) != len(c.stats) {
			return fmt.Errorf("core: seed has %d policy stats, controller has %d policies",
				len(seed.Stats), len(c.stats))
		}
		if c.phase == Idle {
			copy(c.stats, seed.Stats)
			c.sel.seed(seed.Stats)
		} else {
			for i, st := range seed.Stats {
				if c.stats[i].TimesSampled == 0 {
					c.stats[i] = st
				}
			}
		}
	}
	c.lastWinner = seed.Winner
	c.lastWinnerOK = true
	c.lastWinOver = seed.WinnerOverhead
	return nil
}

// BestKnownPolicy returns the policy the controller would choose for
// production given everything sampled so far in the current round, falling
// back to the historical winner and then to policy 0.
func (c *Controller) BestKnownPolicy() int {
	if best := c.bestSampled(); best >= 0 {
		return best
	}
	if c.lastWinnerOK {
		return c.lastWinner
	}
	return 0
}
