package simmach

import (
	"fmt"
	"strings"
)

// ParamEpoch is one segment of a time-indexed parameter table. From Start
// until the next epoch's Start the machine charges the costs in Cfg, scales
// pure computation by the per-processor slowdown factors, and injects
// background lock contention.
type ParamEpoch struct {
	// Start is the virtual time at which the epoch takes effect. The first
	// epoch must start at 0; subsequent starts must be strictly increasing.
	Start Time

	// Cfg is the cost model in effect during the epoch. Every cost must be
	// positive and Procs must match the machine the table is installed on.
	Cfg Config

	// SlowMilli, when non-nil, scales every Advance on processor i by
	// SlowMilli[i]/1000 (e.g. 3000 = the processor computes 3× slower,
	// modeling stolen cycles). Its length must equal Cfg.Procs and every
	// factor must be at least 1. Nil means no slowdown.
	SlowMilli []int64

	// HoldEvery > 0 injects a phantom background lock holder: every
	// HoldEvery-th otherwise-uncontended acquire machine-wide finds the lock
	// briefly held and spins for HoldFor before acquiring it. The injected
	// wait is charged exactly like a real contended acquire (waiting time
	// plus failed attempts), so the policies' measured overheads respond the
	// way they would to real interference.
	HoldEvery int64

	// HoldFor is how long the phantom holder keeps the lock. Must be
	// positive when HoldEvery > 0.
	HoldFor Time
}

// ParamTable is a time-indexed parameter table: a piecewise-constant
// timeline of machine cost models, per-processor slowdown factors, and
// injected background contention, consulted by the dispatcher at the acting
// processor's virtual clock. A table makes the environment itself a
// deterministic function of virtual time — the substrate of the
// environment-perturbation engine (internal/perturb) — while preserving the
// zero-allocation steady state: each processor carries an epoch cursor that
// advances monotonically with its clock, so lookup is amortized O(1).
type ParamTable struct {
	epochs []ParamEpoch
}

// NewParamTable validates the epochs and builds a table. The slice is
// copied; SlowMilli slices are shared with the caller and must not be
// mutated afterwards.
func NewParamTable(epochs []ParamEpoch) (*ParamTable, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("simmach: param table needs at least one epoch")
	}
	if epochs[0].Start != 0 {
		return nil, fmt.Errorf("simmach: first epoch must start at 0, got %v", epochs[0].Start)
	}
	procs := epochs[0].Cfg.Procs
	if procs <= 0 {
		return nil, fmt.Errorf("simmach: param table config must have positive Procs")
	}
	for i, e := range epochs {
		if i > 0 && e.Start <= epochs[i-1].Start {
			return nil, fmt.Errorf("simmach: epoch %d starts at %v, not after %v", i, e.Start, epochs[i-1].Start)
		}
		if e.Cfg.Procs != procs {
			return nil, fmt.Errorf("simmach: epoch %d has %d procs, epoch 0 has %d", i, e.Cfg.Procs, procs)
		}
		c := e.Cfg
		if c.TimerReadCost <= 0 || c.AcquireCost <= 0 || c.ReleaseCost <= 0 || c.SpinCost <= 0 || c.BarrierCost <= 0 {
			return nil, fmt.Errorf("simmach: epoch %d has a non-positive cost: %+v", i, c)
		}
		if e.SlowMilli != nil {
			if len(e.SlowMilli) != procs {
				return nil, fmt.Errorf("simmach: epoch %d SlowMilli has %d entries, want %d", i, len(e.SlowMilli), procs)
			}
			for pid, s := range e.SlowMilli {
				if s < 1 {
					return nil, fmt.Errorf("simmach: epoch %d SlowMilli[%d] = %d, must be >= 1", i, pid, s)
				}
			}
		}
		if e.HoldEvery < 0 {
			return nil, fmt.Errorf("simmach: epoch %d HoldEvery = %d, must be >= 0", i, e.HoldEvery)
		}
		if e.HoldEvery > 0 && e.HoldFor <= 0 {
			return nil, fmt.Errorf("simmach: epoch %d has HoldEvery without a positive HoldFor", i)
		}
	}
	t := &ParamTable{epochs: make([]ParamEpoch, len(epochs))}
	copy(t.epochs, epochs)
	return t, nil
}

// Epochs returns a copy of the table's epochs.
func (t *ParamTable) Epochs() []ParamEpoch {
	out := make([]ParamEpoch, len(t.epochs))
	copy(out, t.epochs)
	return out
}

// index returns the epoch in effect at time now (linear scan; used on cold
// paths like barrier rendezvous and failure reports).
func (t *ParamTable) index(now Time) int {
	i := 0
	for i+1 < len(t.epochs) && now >= t.epochs[i+1].Start {
		i++
	}
	return i
}

// SetParamTable installs a time-indexed parameter table, or removes it when
// t is nil. It must be called before Run; the table's processor count must
// match the machine's. Once a table is installed the machine's base
// configuration applies only through the table's epochs (epoch 0
// conventionally repeats it).
func (m *Machine) SetParamTable(t *ParamTable) error {
	if m.running {
		return fmt.Errorf("simmach: SetParamTable while running")
	}
	if t != nil && t.epochs[0].Cfg.Procs != len(m.procs) {
		return fmt.Errorf("simmach: param table has %d procs, machine has %d", t.epochs[0].Cfg.Procs, len(m.procs))
	}
	m.table = t
	m.acqSeq = 0
	for _, p := range m.procs {
		p.epoch = 0
	}
	return nil
}

// PerturbState describes the parameter-table epoch in effect at the
// machine's current maximum clock, for deadlock and step-budget failure
// reports. It returns "" when no table is installed.
func (m *Machine) PerturbState() string {
	if m.table == nil {
		return ""
	}
	now := m.MaxClock()
	i := m.table.index(now)
	e := &m.table.epochs[i]
	var b strings.Builder
	fmt.Fprintf(&b, "perturb epoch %d/%d (since %v): acquire=%v release=%v spin=%v barrier=%v timer=%v",
		i, len(m.table.epochs), e.Start,
		e.Cfg.AcquireCost, e.Cfg.ReleaseCost, e.Cfg.SpinCost, e.Cfg.BarrierCost, e.Cfg.TimerReadCost)
	if e.SlowMilli != nil {
		fmt.Fprintf(&b, " slow‰=%v", e.SlowMilli)
	}
	if e.HoldEvery > 0 {
		fmt.Fprintf(&b, " phantom holder every %d acquires for %v (seq %d)", e.HoldEvery, e.HoldFor, m.acqSeq)
	}
	return b.String()
}

// activeEpoch returns the parameter-table epoch in effect at p's current
// clock, or nil when no table is installed. The per-processor cursor only
// moves when the clock crosses an epoch boundary, so the common case is a
// single comparison; the backward loop covers SetClock rewinds.
func (p *Proc) activeEpoch() *ParamEpoch {
	t := p.m.table
	if t == nil {
		return nil
	}
	i := p.epoch
	es := t.epochs
	for int(i)+1 < len(es) && p.clock >= es[i+1].Start {
		i++
	}
	for i > 0 && p.clock < es[i].Start {
		i--
	}
	p.epoch = i
	return &es[i]
}

// activeCfg returns the cost model in effect at p's current clock.
func (p *Proc) activeCfg() *Config {
	if e := p.activeEpoch(); e != nil {
		return &e.Cfg
	}
	return &p.m.cfg
}

// cfgAt returns the cost model in effect at an arbitrary time (cold paths
// only; processors use their cursor via activeCfg).
func (m *Machine) cfgAt(now Time) *Config {
	if m.table == nil {
		return &m.cfg
	}
	return &m.table.epochs[m.table.index(now)].Cfg
}
