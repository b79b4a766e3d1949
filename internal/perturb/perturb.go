// Package perturb implements a deterministic, scriptable
// environment-perturbation engine for the simulated machine.
//
// The paper's central claim (§2.3, §5) is that dynamic feedback re-adapts
// when the execution environment changes between sampling rounds. A
// Schedule scripts such changes as a function of *virtual* time: step or
// ramped changes to the machine's synchronization costs, per-processor
// slowdown factors (stolen cycles), and injected background lock contention
// (phantom holders). Schedules compile to a simmach.ParamTable — a
// piecewise-constant timeline the event engine consults at the acting
// processor's clock — so perturbed runs remain exactly as deterministic as
// unperturbed ones: the environment is data, not a random process.
//
// All arithmetic is integer (multipliers in parts per 1000), so a schedule
// produces bit-identical parameter tables on every host, and a schedule's
// canonical encoding participates in interp's content-addressed cache keys.
package perturb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/simmach"
)

// DefaultResolution is the ramp discretization grid used when a schedule
// does not set one.
const DefaultResolution = 10 * simmach.Millisecond

// Bounds on what one schedule may ask of the simulator. A schedule can
// arrive in a request body, so Validate rejects one past any of them: the
// epoch cap bounds what Table allocates, and the others keep the machine's
// integer cost arithmetic (scaleCost, Proc.Advance, the phantom holder's
// spin) from overflowing.
const (
	// maxRampEpochs caps the parameter-table epochs all of a schedule's
	// ramps emit together, RampFor/Resolution+1 each (the built-in ramp
	// emits 13).
	maxRampEpochs = 10_000
	// maxMilli caps every cost multiplier and slowdown factor: 1000×.
	maxMilli = 1_000_000
	// maxTime caps every change's At+RampFor: 2^46 ns, about 19.5 hours of
	// virtual time, and small enough that a ramp point's
	// At + RampFor·k/steps cannot overflow.
	maxTime = simmach.Time(1) << 46
	// maxHoldFor caps how long a phantom holder keeps a lock.
	maxHoldFor = simmach.Second
)

// Slowdown scales one processor's pure-compute speed.
type Slowdown struct {
	// Proc is the processor index, or -1 for every processor. Entries for
	// processors the current machine does not have are ignored, so one
	// schedule is usable at any processor count.
	Proc int `json:"proc"`
	// Milli is the slowdown factor in parts per 1000 (3000 = the processor
	// computes 3× slower). 1000 restores full speed. Must be >= 1.
	Milli int64 `json:"milli"`
}

// Change is one scripted modification of the environment, taking effect at
// virtual time At. The *Milli cost multipliers are expressed in parts per
// 1000 of the machine's base cost model (they do not compound across
// changes); a zero multiplier inherits the previous value. Slowdown and
// contention fields likewise inherit when zero.
type Change struct {
	// At is when the change takes effect.
	At simmach.Time `json:"at_ns"`

	// RampFor, when positive, ramps the cost multipliers linearly from
	// their previous values to the new ones over [At, At+RampFor],
	// discretized at the schedule's Resolution. Slowdown and contention
	// changes always step at At.
	RampFor simmach.Time `json:"ramp_for_ns,omitempty"`

	// Cost multipliers, parts per 1000 of the base config (0 = inherit).
	AcquireMilli int64 `json:"acquire_milli,omitempty"`
	ReleaseMilli int64 `json:"release_milli,omitempty"`
	SpinMilli    int64 `json:"spin_milli,omitempty"`
	BarrierMilli int64 `json:"barrier_milli,omitempty"`
	TimerMilli   int64 `json:"timer_milli,omitempty"`

	// Slow adjusts per-processor slowdown factors. Listed processors are
	// overridden; others keep their previous factor.
	Slow []Slowdown `json:"slow,omitempty"`

	// HoldEvery controls injected background contention: > 0 makes every
	// HoldEvery-th otherwise-uncontended acquire machine-wide find the lock
	// held by a phantom background holder for HoldFor; -1 switches the
	// injection off; 0 inherits the previous setting.
	HoldEvery int64 `json:"hold_every,omitempty"`
	// HoldFor is how long the phantom holder keeps the lock (0 = inherit).
	HoldFor simmach.Time `json:"hold_for_ns,omitempty"`
}

// Schedule is a deterministic script of environment changes in virtual
// time. The zero value (and nil) is the empty schedule: no perturbation.
type Schedule struct {
	// Name is cosmetic (reports, flags); it is excluded from the canonical
	// encoding, so renaming a scenario does not invalidate cached runs.
	//dfvet:fingerprint-exclude cosmetic label; renaming a scenario must not invalidate cached runs
	Name string `json:"name,omitempty"`
	// Resolution is the ramp discretization grid (default 10ms).
	Resolution simmach.Time `json:"resolution_ns,omitempty"`
	// Changes are applied in order; At must be strictly increasing and
	// positive (the base environment is epoch 0).
	Changes []Change `json:"changes"`
}

// Empty reports whether s perturbs anything. It is nil-safe.
func (s *Schedule) Empty() bool { return s == nil || len(s.Changes) == 0 }

// Validate checks the schedule's static constraints and bounds.
func (s *Schedule) Validate() error {
	if s.Empty() {
		return nil
	}
	if s.Resolution < 0 {
		return fmt.Errorf("perturb: negative resolution %d", s.Resolution)
	}
	prev := simmach.Time(0)
	epochs := int64(0)
	for i, c := range s.Changes {
		if c.At <= prev {
			return fmt.Errorf("perturb: change %d at %v, must be after %v", i, c.At, prev)
		}
		prev = c.At
		if c.RampFor < 0 {
			return fmt.Errorf("perturb: change %d has negative ramp %v", i, c.RampFor)
		}
		if c.RampFor > maxTime-c.At {
			return fmt.Errorf("perturb: change %d ends past %v of virtual time", i, maxTime)
		}
		if c.RampFor > 0 {
			if epochs += s.rampSteps(c) + 1; epochs > maxRampEpochs {
				return fmt.Errorf("perturb: ramps need over %d epochs; coarsen resolution_ns or shorten ramp_for_ns", maxRampEpochs)
			}
		}
		for _, m := range []int64{c.AcquireMilli, c.ReleaseMilli, c.SpinMilli, c.BarrierMilli, c.TimerMilli} {
			if m < 0 || m > maxMilli {
				return fmt.Errorf("perturb: change %d has cost multiplier %d, must be in [0, %d]", i, m, maxMilli)
			}
		}
		for j, sl := range c.Slow {
			if sl.Proc < -1 {
				return fmt.Errorf("perturb: change %d slow %d has proc %d", i, j, sl.Proc)
			}
			if sl.Milli < 1 || sl.Milli > maxMilli {
				return fmt.Errorf("perturb: change %d slow %d has factor %d, must be in [1, %d]", i, j, sl.Milli, maxMilli)
			}
		}
		if c.HoldEvery < -1 {
			return fmt.Errorf("perturb: change %d has HoldEvery %d", i, c.HoldEvery)
		}
		if c.HoldFor < 0 || c.HoldFor > maxHoldFor {
			return fmt.Errorf("perturb: change %d has HoldFor %v, must be in [0, %v]", i, c.HoldFor, maxHoldFor)
		}
		if c.HoldEvery > 0 && c.HoldFor == 0 {
			return fmt.Errorf("perturb: change %d enables contention without HoldFor", i)
		}
	}
	return nil
}

// rampSteps is the number of grid steps c's ramp takes (at least one);
// Table emits one epoch per step plus the one at c.At.
func (s *Schedule) rampSteps(c Change) int64 {
	res := s.Resolution
	if res <= 0 {
		res = DefaultResolution
	}
	return max(int64(c.RampFor/res), 1)
}

// FirstChangeAt returns the virtual time of the first change, or 0 for the
// empty schedule. The adaptivity experiments use it as the phase boundary
// for per-phase metrics.
func (s *Schedule) FirstChangeAt() simmach.Time {
	if s.Empty() {
		return 0
	}
	return s.Changes[0].At
}

// envState is the resolved environment at one point of the timeline:
// multipliers over the base config, slowdown factors, and contention.
type envState struct {
	acq, rel, spin, bar, timer int64
	slow                       []int64 // nil until a Slow change appears
	holdEvery                  int64
	holdFor                    simmach.Time
}

func baseState() envState {
	return envState{acq: 1000, rel: 1000, spin: 1000, bar: 1000, timer: 1000}
}

// apply folds one change into the state and returns the result.
func (st envState) apply(c Change, procs int) envState {
	if c.AcquireMilli > 0 {
		st.acq = c.AcquireMilli
	}
	if c.ReleaseMilli > 0 {
		st.rel = c.ReleaseMilli
	}
	if c.SpinMilli > 0 {
		st.spin = c.SpinMilli
	}
	if c.BarrierMilli > 0 {
		st.bar = c.BarrierMilli
	}
	if c.TimerMilli > 0 {
		st.timer = c.TimerMilli
	}
	if len(c.Slow) > 0 {
		next := make([]int64, procs)
		if st.slow != nil {
			copy(next, st.slow)
		} else {
			for i := range next {
				next[i] = 1000
			}
		}
		for _, sl := range c.Slow {
			if sl.Proc == -1 {
				for i := range next {
					next[i] = sl.Milli
				}
			} else if sl.Proc < procs {
				next[sl.Proc] = sl.Milli
			}
		}
		st.slow = next
	}
	switch {
	case c.HoldEvery > 0:
		st.holdEvery = c.HoldEvery
		if c.HoldFor > 0 {
			st.holdFor = c.HoldFor
		}
	case c.HoldEvery == -1:
		st.holdEvery = 0
	default:
		if c.HoldFor > 0 {
			st.holdFor = c.HoldFor
		}
	}
	return st
}

// lerp interpolates the cost multipliers of a to b at fraction k/n;
// slowdown and contention come from b (they step at the change point).
func lerp(a, b envState, k, n int64) envState {
	out := b
	out.acq = a.acq + (b.acq-a.acq)*k/n
	out.rel = a.rel + (b.rel-a.rel)*k/n
	out.spin = a.spin + (b.spin-a.spin)*k/n
	out.bar = a.bar + (b.bar-a.bar)*k/n
	out.timer = a.timer + (b.timer-a.timer)*k/n
	return out
}

// scaleCost applies a milli multiplier, clamping at 1ns so costs stay
// positive.
func scaleCost(c simmach.Time, milli int64) simmach.Time {
	v := c * simmach.Time(milli) / 1000
	if v < 1 {
		return 1
	}
	return v
}

// epoch materializes the state into a ParamEpoch over the base config.
func (st envState) epoch(base simmach.Config, at simmach.Time) simmach.ParamEpoch {
	cfg := base
	cfg.AcquireCost = scaleCost(base.AcquireCost, st.acq)
	cfg.ReleaseCost = scaleCost(base.ReleaseCost, st.rel)
	cfg.SpinCost = scaleCost(base.SpinCost, st.spin)
	cfg.BarrierCost = scaleCost(base.BarrierCost, st.bar)
	cfg.TimerReadCost = scaleCost(base.TimerReadCost, st.timer)
	e := simmach.ParamEpoch{Start: at, Cfg: cfg}
	if st.slow != nil {
		allIdle := true
		for _, v := range st.slow {
			if v != 1000 {
				allIdle = false
				break
			}
		}
		if !allIdle {
			e.SlowMilli = st.slow
		}
	}
	if st.holdEvery > 0 {
		e.HoldEvery = st.holdEvery
		e.HoldFor = st.holdFor
	}
	return e
}

// Table compiles the schedule against a base machine configuration into the
// parameter table the event engine consults. base should be the normalized
// config the run would otherwise use; the result is nil for an empty
// schedule.
func (s *Schedule) Table(base simmach.Config) (*simmach.ParamTable, error) {
	if s.Empty() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base = base.Normalized()
	cur := baseState()
	epochs := []simmach.ParamEpoch{cur.epoch(base, 0)}
	push := func(e simmach.ParamEpoch) {
		if last := &epochs[len(epochs)-1]; last.Start == e.Start {
			*last = e
		} else {
			epochs = append(epochs, e)
		}
	}
	for _, c := range s.Changes {
		next := cur.apply(c, base.Procs)
		if c.RampFor > 0 {
			steps := s.rampSteps(c)
			// k = 0 applies the stepped fields (slowdown, contention) at At
			// with the old costs; the costs then ramp to their targets.
			for k := int64(0); k <= steps; k++ {
				at := c.At + simmach.Time(int64(c.RampFor)*k/steps)
				push(lerp(cur, next, k, steps).epoch(base, at))
			}
		} else {
			push(next.epoch(base, c.At))
		}
		cur = next
	}
	return simmach.NewParamTable(epochs)
}

// AppendCanonical appends a self-delimiting canonical encoding of the
// schedule — everything except the cosmetic Name — to b. interp folds it
// into the content address of a simulation, so two runs differing only in
// their perturbation schedule never share a cache entry. The nil and empty
// schedules encode identically.
//
//dfvet:fingerprint Schedule Change Slowdown
func (s *Schedule) AppendCanonical(b []byte) []byte {
	if s.Empty() {
		return append(b, 0)
	}
	i64 := func(v int64) {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = append(b, 1)
	i64(int64(s.Resolution))
	i64(int64(len(s.Changes)))
	for _, c := range s.Changes {
		i64(int64(c.At))
		i64(int64(c.RampFor))
		i64(c.AcquireMilli)
		i64(c.ReleaseMilli)
		i64(c.SpinMilli)
		i64(c.BarrierMilli)
		i64(c.TimerMilli)
		i64(int64(len(c.Slow)))
		for _, sl := range c.Slow {
			i64(int64(sl.Proc))
			i64(sl.Milli)
		}
		i64(c.HoldEvery)
		i64(int64(c.HoldFor))
	}
	return b
}

// Key returns a short stable digest of the schedule for memo keys. The
// empty schedule's key is "".
func (s *Schedule) Key() string {
	if s.Empty() {
		return ""
	}
	sum := sha256.Sum256(s.AppendCanonical(nil))
	return hex.EncodeToString(sum[:8])
}
