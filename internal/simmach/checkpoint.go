package simmach

import (
	"fmt"
	"slices"
)

// This file implements machine checkpoint/restore. A checkpoint is a copy:
// the scheduler step count, the phantom-holder acquire sequence, the
// parameter table, and one clone of every processor, lock and barrier —
// clocks, statuses, instrumentation counters, parameter-table cursors, lock
// ownership and waiter queues, barrier rendezvous state. Each type's clone
// copies the struct whole and deep-copies only its slices, so a field added
// to Proc, Lock or Barrier is in every checkpoint without further code.
// Restoring a checkpoint and continuing is byte-identical to never having
// left it.
//
// Restore writes the clones back through the live pointers, so every
// *Proc, *Lock and *Barrier a client holds stays valid, and a barrier's
// OnComplete is the one it had at the checkpoint. What is deliberately not
// copied back: the run queue, which is rebuilt from the restored statuses
// (every processor's queued flag cleared first); the step count, recorded
// as one less than at the checkpoint; and the locks and barriers created
// after the checkpoint, which are discarded (the lists are truncated to
// their checkpoint length), so clients must also roll back any references
// they hold to them.
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
// runtime's call stacks, heap objects, section cursors — is the client's
// to capture and restore alongside it. Trace callbacks are NOT rewound: a
// traced run that restores a checkpoint observes the rolled-back events a
// second time when they re-execute, so estimation runs reject tracing.

// Checkpoint is a restorable snapshot of a Machine's execution state.
type Checkpoint struct {
	m      *Machine
	steps  int64
	acqSeq int64
	table  *ParamTable
	procs  []Proc
	locks  []Lock
	bars   []Barrier
}

// clone copies the processor; it holds no slice or map.
func (p *Proc) clone() Proc { return *p }

// clone copies the lock with its active waiter queue, rebased to whead 0.
func (l *Lock) clone() Lock {
	c := *l
	c.waiters = slices.Clone(l.waiters[l.whead:])
	c.whead = 0
	return c
}

// clone copies the barrier with its per-processor arrival arrays.
func (b *Barrier) clone() Barrier {
	c := *b
	c.arrivedEpoch = slices.Clone(b.arrivedEpoch)
	c.since = slices.Clone(b.since)
	return c
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
		procs:  make([]Proc, len(m.procs)),
		locks:  make([]Lock, len(m.locks)),
		bars:   make([]Barrier, len(m.barriers)),
	}
	for i, p := range m.procs {
		ck.procs[i] = p.clone()
	}
	// The current processor is mid-dispatch (out of the run queue); record
	// it Ready so the restore re-enqueues it for the replay dispatch.
	ck.procs[m.cur.id].status = Ready
	for i, l := range m.locks {
		ck.locks[i] = l.clone()
	}
	for i, b := range m.barriers {
		ck.bars[i] = b.clone()
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
	if len(ck.locks) > len(m.locks) || len(ck.bars) > len(m.barriers) {
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
	for i, p := range m.procs {
		*p = ck.procs[i].clone()
		p.queued = false
		if p.status == Ready {
			m.push(p)
		}
	}

	m.locks = m.locks[:len(ck.locks)]
	for i, l := range m.locks {
		*l = ck.locks[i].clone()
	}
	m.barriers = m.barriers[:len(ck.bars)]
	for i, b := range m.barriers {
		*b = ck.bars[i].clone()
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
