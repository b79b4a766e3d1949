package interp

import (
	"maps"
	"slices"

	"repro/internal/simmach"
)

// This file implements the runtime side of checkpoint/restore. A snapshot
// is a copy: one clone of every piece of client state the simulated machine
// cannot see — the VM workers (call stacks, register banks, lock nests), the
// reachable heap objects, the active section run, every section's
// statistics and the race detector — next to the machine's own
// simmach.Checkpoint and the length of the program output. Each clone
// copies its struct whole and deep-copies only the slices and maps it
// names, so a field added to any of these types is in every snapshot
// without further code (TestCloneCoversEveryField holds each clone to its
// struct). Restore writes a fresh clone back through the
// live pointer, so pointer identity survives (workers hold the *sectionRun,
// the machine's barrier its OnComplete, objects their *simmach.Lock) and a
// snapshot is never aliased by the state it was restored into. Together
// with simmach.Checkpoint this gives the byte-identity guarantee:
// restore-then-continue is indistinguishable from uninterrupted execution.
//
// Deliberately not rewound: each worker's executed and acc (a claim point
// begins a dispatch with nothing executed or charged), and what
// simmach.Checkpoint documents (the run queue, the step count, locks and
// barriers created later).
//
// Snapshots are only taken at iteration-claim points (the checkpoint
// protocol's anchor), only under the VM engine (the step interpreter is
// the reference oracle and keeps no snapshot state; Run rejects the
// combination), and only for static-policy runs: the dynamic feedback
// controller (core.Controller and, inside it, its selector's arm
// statistics) is not yet cloned.

// runSnapshot is a restorable snapshot of a run: the machine checkpoint
// plus a clone of the interpreter-level client state.
type runSnapshot struct {
	mck       *simmach.Checkpoint
	outputLen int
	stats     map[int]SectionStats
	sr        *sectionRun
	run       sectionRun
	tasks     []vmTask // by processor
	objects   map[*Object]Object
	race      *raceDetector
}

// clone copies the section run with its argument and per-processor slices.
func (sr *sectionRun) clone() sectionRun {
	c := *sr
	c.args = slices.Clone(sr.args)
	c.snap = slices.Clone(sr.snap)
	c.secSnap = slices.Clone(sr.secSnap)
	c.chunkNext = slices.Clone(sr.chunkNext)
	c.chunkRem = slices.Clone(sr.chunkRem)
	return c
}

// clone copies the statistics; VersionLabels is immutable and shared.
func (st *SectionStats) clone() SectionStats {
	c := *st
	c.Executions = slices.Clone(st.Executions)
	c.Samples = slices.Clone(st.Samples)
	c.Switches = slices.Clone(st.Switches)
	return c
}

// clone copies the task, its embedded worker included: the frame stack,
// the three register arenas and the lock nest. The copied frames' windows
// still point into t's arenas until repoint. The flag vector (a version's,
// immutable) and the extern-argument scratch are shared.
func (t *vmTask) clone() vmTask {
	c := *t
	c.frames = slices.Clone(t.frames)
	c.intStack = slices.Clone(t.intStack)
	c.floatStack = slices.Clone(t.floatStack)
	c.refStack = slices.Clone(t.refStack)
	c.held = slices.Clone(t.held)
	return c
}

// clone copies the object's slots; the class and the lock are shared.
func (o *Object) clone() Object {
	c := *o
	c.Fields = slices.Clone(o.Fields)
	c.Elems = slices.Clone(o.Elems)
	return c
}

// clone copies the detector with a fresh state per location.
func (d *raceDetector) clone() raceDetector {
	c := *d
	c.states = make(map[accessKey]*raceState, len(d.states))
	for k, s := range d.states {
		cs := *s
		cs.lockset = slices.Clone(s.lockset)
		c.states[k] = &cs
	}
	c.reports = slices.Clone(d.reports)
	c.seen = maps.Clone(d.seen)
	return c
}

// snapshot captures the full run state. It must be called at a claim point
// (start of a dispatch, nothing charged yet) inside a parallel section of a
// static-policy run.
func (rt *runtime) snapshot() *runSnapshot {
	if len(rt.controllers) != 0 {
		rt.fail("checkpoint: dynamic-feedback controller state is not snapshotable; use a static policy")
	}
	sr := rt.pool[0].sr
	if sr == nil {
		rt.fail("checkpoint: no active parallel section")
	}
	s := &runSnapshot{
		mck:       rt.m.Checkpoint(),
		outputLen: len(rt.output),
		stats:     make(map[int]SectionStats, len(rt.stats)),
		sr:        sr,
		run:       sr.clone(),
		objects:   map[*Object]Object{},
	}
	for id, st := range rt.stats {
		s.stats[id] = st.clone()
	}

	// Heap traversal roots: every live register of every task plus the
	// section arguments. Objects unreachable from these cannot be mutated
	// by post-checkpoint execution, so they need no snapshot.
	var queue []*Object
	addObj := func(o *Object) {
		if o == nil {
			return
		}
		if _, ok := s.objects[o]; ok {
			return
		}
		s.objects[o] = o.clone()
		queue = append(queue, o)
	}
	addVals := func(vs []Value) {
		for _, v := range vs {
			if v.Kind == KindRef {
				addObj(v.Ref)
			}
		}
	}
	for _, w := range rt.pool {
		t := w.ex.(*vmTask) // Run admits ckHook under EngineVM only
		s.tasks = append(s.tasks, t.clone())
		for _, o := range t.refStack {
			addObj(o)
		}
	}
	addVals(sr.args)
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		addVals(o.Fields)
		addVals(o.Elems)
	}

	if rt.race != nil {
		d := rt.race.clone()
		s.race = &d
	}
	return s
}

// restoreSnapshot resets the run to s. It must be called at a claim point;
// the calling Step must return simmach.Restored immediately afterwards.
func (rt *runtime) restoreSnapshot(s *runSnapshot) {
	rt.m.Restore(s.mck)
	rt.output = rt.output[:s.outputLen]
	for id, st := range rt.stats {
		if saved, ok := s.stats[id]; ok {
			*st = saved.clone()
		} else {
			delete(rt.stats, id)
		}
	}
	*s.sr = s.run.clone()
	for i, w := range rt.pool {
		t := w.ex.(*vmTask)
		*t = s.tasks[i].clone()
		t.repoint()
		// A claim point begins a dispatch: nothing executed, nothing unflushed.
		t.executed, t.acc = 0, 0
	}
	for o, saved := range s.objects {
		*o = saved.clone()
	}
	if s.race != nil {
		*rt.race = s.race.clone()
	}
}

// ckHook is the test-only checkpoint/restore driver: at claim number ckAt
// (counted across all processors and sections) it snapshots the run; at
// claim restoreAt it restores and lets execution replay. Used by the
// byte-identity tests to prove restore-then-continue equals uninterrupted
// execution at arbitrary claim points.
type ckHook struct {
	ckAt      int64
	restoreAt int64
	claims    int64
	snap      *runSnapshot
	restored  bool
}

func (h *ckHook) atClaim(rt *runtime) (simmach.Status, bool) {
	h.claims++
	if h.claims == h.ckAt {
		h.snap = rt.snapshot()
	}
	if h.claims == h.restoreAt && h.snap != nil && !h.restored {
		h.restored = true
		rt.restoreSnapshot(h.snap)
		return simmach.Restored, true
	}
	return 0, false
}
