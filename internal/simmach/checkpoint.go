package simmach

import "fmt"

// This file implements machine checkpoint/restore: a deep, deterministic
// snapshot of every piece of machine state that influences execution —
// processor clocks, statuses, instrumentation counters and parameter-table
// cursors, the run queue, lock ownership and waiter queues, barrier
// rendezvous state, the scheduler step count, and the phantom-holder
// acquire sequence. Restoring a checkpoint and continuing is byte-identical
// to never having left it, which is what lets a sampled simulation
// fast-forward through a gap and roll back when the gap's extrapolation
// basis turns out to have been a phase boundary (see internal/simsample).
//
// Protocol. Checkpoint and Restore may only be called from inside a
// Process.Step, at the very start of the step, before the step has charged
// time or touched any shared state (the interpreter's iteration-claim point
// satisfies this by construction: claims always begin a dispatch). The
// checkpoint records the dispatch as not yet having happened, so after a
// restore the scheduler re-dispatches the same processor at the same step
// count and the re-executed step replays identically. A Step that calls
// Restore must return the Restored status immediately; the scheduler then
// discards the interrupted dispatch and resumes from the restored state.
//
// The machine snapshot covers machine-owned state only. Client state — the
// runtime's call stacks, heap objects, section cursors — must be captured
// and restored by the client alongside the machine checkpoint; the Client
// field carries that payload. Locks and barriers created after the
// checkpoint are discarded on restore (the lock list is truncated to its
// checkpoint length), so clients must also roll back any references they
// hold to such locks. Trace callbacks are NOT rewound: a traced run that
// restores a checkpoint observes the rolled-back events a second time when
// they re-execute, so estimation runs reject tracing.

// Checkpoint is a restorable snapshot of a Machine's execution state.
type Checkpoint struct {
	m      *Machine
	steps  int64
	acqSeq int64
	table  *ParamTable
	procs  []procSnap
	locks  []lockSnap
	nBars  int
	bars   []barrierSnap

	// Client carries the client runtime's own snapshot (call stacks, heap,
	// section state), taken at the same instant. The machine does not
	// interpret it.
	Client any
}

type procSnap struct {
	clock    Time
	status   Status
	epoch    int32
	counters Counters
	process  Process
}

type lockSnap struct {
	owner     int
	waiters   []lockWaiter
	unordered bool
}

type barrierSnap struct {
	count        int
	epochs       int64
	arrivedEpoch []int64
	since        []Time
}

// Checkpoint snapshots the machine. It must be called from within the
// current processor's Step, before the step has mutated any machine state
// (see the protocol comment above).
func (m *Machine) Checkpoint() *Checkpoint {
	if !m.running || m.cur == nil {
		panic("simmach: Checkpoint outside Run")
	}
	ck := &Checkpoint{
		m: m,
		// The in-flight dispatch is recorded as not yet having happened, so
		// the post-restore re-dispatch replays it at the same step count.
		steps:  m.steps - 1,
		acqSeq: m.acqSeq,
		table:  m.table,
		procs:  make([]procSnap, len(m.procs)),
		locks:  make([]lockSnap, len(m.locks)),
		nBars:  len(m.barriers),
		bars:   make([]barrierSnap, len(m.barriers)),
	}
	for i, p := range m.procs {
		ck.procs[i] = procSnap{
			clock:    p.clock,
			status:   p.status,
			epoch:    p.epoch,
			counters: p.Counters,
			process:  p.process,
		}
	}
	// The current processor is mid-dispatch (out of the run queue); record
	// it Ready so the restore re-enqueues it for the replay dispatch.
	ck.procs[m.cur.id].status = Ready
	for i, l := range m.locks {
		s := lockSnap{owner: l.owner, unordered: l.unordered}
		if act := l.waiters[l.whead:]; len(act) > 0 {
			s.waiters = make([]lockWaiter, len(act))
			copy(s.waiters, act)
		}
		ck.locks[i] = s
	}
	for i, b := range m.barriers {
		s := barrierSnap{
			count:        b.count,
			epochs:       b.epochs,
			arrivedEpoch: make([]int64, len(b.arrivedEpoch)),
			since:        make([]Time, len(b.since)),
		}
		copy(s.arrivedEpoch, b.arrivedEpoch)
		copy(s.since, b.since)
		ck.bars[i] = s
	}
	return ck
}

// Restore resets the machine to ck. It must be called from within a
// Process.Step at the start of the step, and that Step must return Restored
// immediately afterwards; the scheduler discards the interrupted dispatch
// and continues from the restored state. Locks and barriers created after
// the checkpoint are discarded.
func (m *Machine) Restore(ck *Checkpoint) {
	if ck == nil || ck.m != m {
		panic("simmach: Restore with a foreign checkpoint")
	}
	if !m.running {
		panic("simmach: Restore outside Run")
	}
	if m.restorePending {
		panic("simmach: Restore while a restore is already pending")
	}
	if len(ck.locks) > len(m.locks) || ck.nBars > len(m.barriers) {
		panic("simmach: Restore after locks or barriers were destroyed")
	}
	m.restorePending = true
	m.steps = ck.steps
	m.acqSeq = ck.acqSeq
	m.table = ck.table

	// Rebuild the run queue from scratch. Pop order depends only on the
	// (clock, id) strict total order, not on where the window sat in the
	// backing array, so pushing in ID order reproduces the exact dispatch
	// sequence.
	m.ready.items, m.ready.head = m.ready.items[:0], 0
	for i := range ck.procs {
		s := &ck.procs[i]
		p := m.procs[i]
		p.clock = s.clock
		p.status = s.status
		p.epoch = s.epoch
		p.Counters = s.counters
		p.process = s.process
		p.queued = false
		if p.status == Ready {
			m.push(p)
		}
	}

	m.locks = m.locks[:len(ck.locks)]
	for i, s := range ck.locks {
		l := m.locks[i]
		l.owner = s.owner
		l.waiters = append(l.waiters[:0], s.waiters...)
		l.whead = 0
		l.unordered = s.unordered
	}

	m.barriers = m.barriers[:ck.nBars]
	for i, s := range ck.bars {
		b := m.barriers[i]
		b.count = s.count
		b.epochs = s.epochs
		copy(b.arrivedEpoch, s.arrivedEpoch)
		copy(b.since, s.since)
	}
}

// SkipCharge advances p's clock and instrumentation counters by
// pre-measured aggregates without simulating the underlying events. busy is
// the total clock advance; lockTime and waitTime are its locking and
// waiting components (machine semantics: both are included in Busy, exactly
// as Acquire and Release charge them). The charge deliberately bypasses the
// parameter table's slowdown scaling — the aggregates were measured on this
// machine, under whatever table was active, so they are already scaled —
// and emits no trace events. Sampled simulation uses it to charge
// fast-forwarded iterations at rates measured in detailed windows.
func (p *Proc) SkipCharge(busy, lockTime, waitTime Time, acquires, failedAcquires int64) {
	if busy < 0 || lockTime < 0 || waitTime < 0 || acquires < 0 || failedAcquires < 0 {
		panic("simmach: negative skip charge")
	}
	p.clock += busy
	p.Counters.Busy += busy
	p.Counters.LockTime += lockTime
	p.Counters.WaitTime += waitTime
	p.Counters.Acquires += acquires
	p.Counters.FailedAcquires += failedAcquires
	if p.queued {
		p.m.ready.fix(p)
	}
}

// checkRestored validates a Restored status against the pending-restore
// flag and clears it. Called by the scheduler loop.
func (m *Machine) checkRestored(p *Proc) {
	if !m.restorePending {
		panic(fmt.Sprintf("simmach: proc %d returned Restored without Machine.Restore", p.id))
	}
	m.restorePending = false
}
