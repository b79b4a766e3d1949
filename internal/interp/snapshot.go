package interp

import (
	"repro/internal/simmach"
)

// This file implements the runtime side of checkpoint/restore: a deep copy
// of every piece of client state the simulated machine cannot see — the
// VM workers' call stacks and register banks, the reachable heap object
// graph, program output, section statistics and cursors, race-detector
// state, and the sampler's own bookkeeping. Together with
// simmach.Checkpoint this gives the byte-identity guarantee sampled
// simulation relies on: restore-then-continue is indistinguishable from
// uninterrupted execution.
//
// Snapshots are only taken at iteration-claim points (the checkpoint
// protocol's anchor), only under the VM engine (the step interpreter is
// the exhaustive-run oracle and keeps no snapshot state; Run rejects the
// combination), and only for static-policy runs: the dynamic
// feedback controller (core.Controller and, inside it, its selector's arm
// statistics) accumulates state that is deliberately not snapshotable, and
// sampled runs reject dynamic policies anyway.

// runSnapshot is a restorable snapshot of a run: the machine checkpoint
// plus the interpreter-level client state.
type runSnapshot struct {
	mck       *simmach.Checkpoint
	outputLen int
	stats     map[int]sectionStatsSnap
	sr        *sectionRun
	srs       sectionRunSnap
	tasks     []vmTaskSnap
	objects   []objSnap
	race      *raceSnap
	samp      *sampSnap
}

type sectionRunSnap struct {
	lo, hi, next int64
	args         []Value
	versionIdx   int
	snap         []simmach.Counters
	secSnap      []simmach.Counters
	finished     bool
	iterations   int64
	startTime    simmach.Time
	chunkNext    []int64
	chunkRem     []int64
}

type sectionStatsSnap struct {
	st         *SectionStats
	executions []ExecutionStat
	iterations int64
	busy       simmach.Time
	counters   simmach.Counters
	chosen     int
}

type vmTaskSnap struct {
	t          *vmTask
	frames     []vmFrame
	intStack   []int64
	floatStack []float64
	refStack   []*Object
	flags      []bool
	baseFrames int
	wphase     int
	sr         *sectionRun
	held       []*simmach.Lock
	collapsed  int64
}

type objSnap struct {
	o      *Object
	fields []Value
	elems  []Value
	lock   *simmach.Lock
}

type raceSnap struct {
	d          *raceDetector
	epoch      int
	section    string
	states     map[accessKey]raceState
	reportsLen int
	seen       map[string]bool
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
		sr:        sr,
		srs: sectionRunSnap{
			lo: sr.lo, hi: sr.hi, next: sr.next,
			args:       append([]Value(nil), sr.args...),
			versionIdx: sr.versionIdx,
			snap:       append([]simmach.Counters(nil), sr.snap...),
			secSnap:    append([]simmach.Counters(nil), sr.secSnap...),
			finished:   sr.finished,
			iterations: sr.iterations,
			startTime:  sr.startTime,
			chunkNext:  append([]int64(nil), sr.chunkNext...),
			chunkRem:   append([]int64(nil), sr.chunkRem...),
		},
		stats: make(map[int]sectionStatsSnap, len(rt.stats)),
	}
	for id, st := range rt.stats {
		s.stats[id] = sectionStatsSnap{
			st:         st,
			executions: append([]ExecutionStat(nil), st.Executions...),
			iterations: st.Iterations,
			busy:       st.Busy,
			counters:   st.Counters,
			chosen:     st.ChosenVersion,
		}
	}

	// Heap traversal roots: every live register of every task plus the
	// section arguments. Objects unreachable from these cannot be mutated
	// by post-checkpoint execution, so they need no snapshot.
	visited := map[*Object]struct{}{}
	var queue []*Object
	addObj := func(o *Object) {
		if o == nil {
			return
		}
		if _, ok := visited[o]; ok {
			return
		}
		visited[o] = struct{}{}
		queue = append(queue, o)
	}
	addVal := func(v Value) {
		if v.Kind == KindRef {
			addObj(v.Ref)
		}
	}

	for _, w := range rt.pool {
		t := w.ex.(*vmTask) // Run admits Sample and ckHook under EngineVM only
		s.tasks = append(s.tasks, vmTaskSnap{
			t:          t,
			frames:     append([]vmFrame(nil), t.frames...),
			intStack:   append([]int64(nil), t.intStack...),
			floatStack: append([]float64(nil), t.floatStack...),
			refStack:   append([]*Object(nil), t.refStack...),
			flags:      t.flags,
			baseFrames: t.baseFrames,
			wphase:     t.wphase,
			sr:         t.sr,
			held:       append([]*simmach.Lock(nil), t.held...),
			collapsed:  t.collapsed,
		})
		for _, o := range t.refStack {
			addObj(o)
		}
	}
	for _, v := range sr.args {
		addVal(v)
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		os := objSnap{o: o, lock: o.lock}
		if o.Fields != nil {
			os.fields = append([]Value(nil), o.Fields...)
			for _, v := range o.Fields {
				addVal(v)
			}
		}
		if o.Elems != nil {
			os.elems = append([]Value(nil), o.Elems...)
			for _, v := range o.Elems {
				addVal(v)
			}
		}
		s.objects = append(s.objects, os)
	}

	if rt.race != nil {
		s.race = snapRace(rt.race)
	}
	if sr.samp != nil {
		ss := sr.samp.snapState()
		s.samp = &ss
	}
	return s
}

// restoreSnapshot resets the run to s. It must be called at a claim point;
// the calling Step must return simmach.Restored immediately afterwards.
func (rt *runtime) restoreSnapshot(s *runSnapshot) {
	rt.m.Restore(s.mck)
	rt.output = rt.output[:s.outputLen]

	for id := range rt.stats {
		if _, ok := s.stats[id]; !ok {
			delete(rt.stats, id)
		}
	}
	for _, ss := range s.stats {
		st := ss.st
		st.Executions = append(st.Executions[:0], ss.executions...)
		st.Iterations = ss.iterations
		st.Busy = ss.busy
		st.Counters = ss.counters
		st.ChosenVersion = ss.chosen
	}

	sr := s.sr
	sr.lo, sr.hi, sr.next = s.srs.lo, s.srs.hi, s.srs.next
	sr.args = append(sr.args[:0], s.srs.args...)
	sr.versionIdx = s.srs.versionIdx
	copy(sr.snap, s.srs.snap)
	copy(sr.secSnap, s.srs.secSnap)
	sr.finished = s.srs.finished
	sr.iterations = s.srs.iterations
	sr.startTime = s.srs.startTime
	if s.srs.chunkNext == nil {
		sr.chunkNext, sr.chunkRem = nil, nil
	} else {
		sr.chunkNext = append(sr.chunkNext[:0], s.srs.chunkNext...)
		sr.chunkRem = append(sr.chunkRem[:0], s.srs.chunkRem...)
	}
	// The active section at the checkpoint owns the switch barrier again.
	rt.barrier.OnComplete = sr.onBarrierComplete

	for _, ts := range s.tasks {
		ts.restore()
	}
	for _, os := range s.objects {
		o := os.o
		copy(o.Fields, os.fields)
		copy(o.Elems, os.elems)
		o.lock = os.lock
	}
	if s.race != nil {
		s.race.restore()
	}
	if s.samp != nil && sr.samp != nil {
		sr.samp.restoreState(*s.samp)
	}
}

func (vs *vmTaskSnap) restore() {
	t := vs.t
	t.intStack = append(t.intStack[:0], vs.intStack...)
	t.floatStack = append(t.floatStack[:0], vs.floatStack...)
	t.refStack = append(t.refStack[:0], vs.refStack...)
	t.frames = append(t.frames[:0], vs.frames...)
	for i := range t.frames {
		f := &t.frames[i]
		ie := f.ibase + int(f.fc.FrameInts)
		fe := f.fbase + int(f.fc.FrameFloats)
		re := f.rbase + int(f.fc.FrameRefs)
		f.ints = t.intStack[f.ibase:ie:ie]
		f.floats = t.floatStack[f.fbase:fe:fe]
		f.refs = t.refStack[f.rbase:re:re]
	}
	t.flags = vs.flags
	t.baseFrames = vs.baseFrames
	t.atBase = len(t.frames) == t.baseFrames
	t.wphase = vs.wphase
	t.sr = vs.sr
	t.executed = 0
	t.acc = 0
	t.held = append(t.held[:0], vs.held...)
	t.collapsed = vs.collapsed
}

func snapRace(d *raceDetector) *raceSnap {
	rs := &raceSnap{
		d:          d,
		epoch:      d.epoch,
		section:    d.section,
		states:     make(map[accessKey]raceState, len(d.states)),
		reportsLen: len(d.reports),
		seen:       make(map[string]bool, len(d.seen)),
	}
	for k, v := range d.states {
		cp := *v
		cp.lockset = append([]*simmach.Lock(nil), v.lockset...)
		rs.states[k] = cp
	}
	for k := range d.seen {
		rs.seen[k] = true
	}
	return rs
}

func (rs *raceSnap) restore() {
	d := rs.d
	d.epoch = rs.epoch
	d.section = rs.section
	for k := range d.states {
		if _, ok := rs.states[k]; !ok {
			delete(d.states, k)
		}
	}
	for k, v := range rs.states {
		cur := d.states[k]
		if cur == nil {
			cur = &raceState{}
			d.states[k] = cur
		}
		ls := append(cur.lockset[:0:0], v.lockset...)
		*cur = v
		cur.lockset = ls
	}
	d.reports = d.reports[:rs.reportsLen]
	d.seen = make(map[string]bool, len(rs.seen))
	for k := range rs.seen {
		d.seen[k] = true
	}
}

// ckHook is the test-only checkpoint/restore driver: at claim number ckAt
// (counted across all processors and sections) it snapshots the run; at
// claim restoreAt it restores and lets execution replay. Used by the
// byte-identity tests to prove restore-then-continue equals uninterrupted
// execution at arbitrary claim points, mid-window included.
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
