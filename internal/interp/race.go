package interp

import (
	"fmt"

	"repro/internal/simmach"
)

// This file implements the dynamic data-race detector of the differential
// harness: an Eraser-style lockset algorithm run over the interpreter's
// field and element accesses inside parallel sections. The static analyzer
// (internal/obl/analysis) proves the *absence* of races from locksets on
// the AST; this detector observes their *presence* on the simulated
// machine, so a seeded lock-elision miscompilation can be confirmed racy by
// an actual execution and correlated with the machine's sync-event trace.
//
// Detection is entirely optional: with Options.DetectRaces unset the
// runtime field stays nil and the hooks reduce to one pointer test, keeping
// the zero-allocation steady state of the plain interpreter.

// RaceReport describes one data race observed during a run: an access to a
// shared location whose candidate lockset became empty after the location
// was written by more than one processor's iteration stream.
type RaceReport struct {
	// Section is the parallel section executing when the race was found.
	Section string
	// Object names the location's object (class name, or "array").
	Object string
	// Field is the accessed field name, or "elem" for array elements.
	Field string
	// Time is the virtual time of the access that emptied the lockset;
	// correlate it with the machine's sync-event trace to confirm no
	// acquire of the object's lock covers it.
	Time simmach.Time
	// Proc is the processor performing that access.
	Proc int
	// Write reports whether that access was a write.
	Write bool
}

// String renders the report in one line.
func (r RaceReport) String() string {
	kind := "read"
	if r.Write {
		kind = "write"
	}
	return fmt.Sprintf("race in %s at t=%d: unsynchronized %s of %s.%s on proc %d",
		r.Section, int64(r.Time), kind, r.Object, r.Field, r.Proc)
}

// Lockset states of one location, per Eraser: a location is benign while
// only one processor has touched it this section execution; once shared,
// the candidate set of locks consistently held at every access must stay
// non-empty or a write makes the location racy.
const (
	rsVirgin = iota
	rsExclusive
	rsShared
	rsSharedModified
)

// raceState tracks one location. States are scoped to a single section
// execution (epoch): serial code between sections may touch any object
// without synchronization by design, so stale states restart at Virgin.
type raceState struct {
	epoch    int
	state    int
	owner    int // owning processor while Exclusive
	lockset  []*simmach.Lock
	reported bool
}

// accessKey identifies one location: a field or element slot of an object.
type accessKey struct {
	obj  *Object
	idx  int32
	elem bool
}

// raceDetector holds the per-run detection state. It is owned by the
// runtime and only touched from interpreter callbacks, which the simulated
// machine serializes, so no host-level locking is needed.
type raceDetector struct {
	epoch   int
	section string
	states  map[accessKey]*raceState
	reports []RaceReport
	// seen dedups reports per (section, object, field): one racy field
	// over ten thousand objects is one finding, not ten thousand.
	seen map[string]bool
}

func newRaceDetector() *raceDetector {
	return &raceDetector{
		states: map[accessKey]*raceState{},
		seen:   map[string]bool{},
	}
}

// enterSection opens a new detection scope.
func (d *raceDetector) enterSection(name string) {
	d.epoch++
	d.section = name
}

// access processes one field or element access inside a parallel section.
// held is the accessing task's current lock nest.
func (d *raceDetector) access(held []*simmach.Lock, p *simmach.Proc, obj *Object, idx int, elem, write bool) {
	k := accessKey{obj: obj, idx: int32(idx), elem: elem}
	s := d.states[k]
	if s == nil {
		s = &raceState{epoch: d.epoch}
		d.states[k] = s
	} else if s.epoch != d.epoch {
		*s = raceState{epoch: d.epoch, lockset: s.lockset[:0]}
	}
	pid := p.ID()
	switch s.state {
	case rsVirgin:
		s.state = rsExclusive
		s.owner = pid
		return
	case rsExclusive:
		if pid == s.owner {
			return
		}
		// Second processor: the candidate set starts as the locks it
		// holds now and only ever shrinks.
		s.lockset = append(s.lockset[:0], held...)
		if write {
			s.state = rsSharedModified
		} else {
			s.state = rsShared
		}
	case rsShared, rsSharedModified:
		s.lockset = intersectLocks(s.lockset, held)
		if write {
			s.state = rsSharedModified
		}
	}
	if s.state == rsSharedModified && len(s.lockset) == 0 && !s.reported {
		s.reported = true
		d.report(p, obj, idx, elem, write)
	}
}

func (d *raceDetector) report(p *simmach.Proc, obj *Object, idx int, elem, write bool) {
	objName := "array"
	if obj.Class != nil {
		objName = obj.Class.Name
	}
	field := "elem"
	if !elem && obj.Class != nil && idx < len(obj.Class.Fields) {
		field = obj.Class.Fields[idx]
	}
	key := d.section + "\x00" + objName + "\x00" + field
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	d.reports = append(d.reports, RaceReport{
		Section: d.section,
		Object:  objName,
		Field:   field,
		Time:    p.Now(),
		Proc:    p.ID(),
		Write:   write,
	})
}

// intersectLocks shrinks set to the locks also present in held, in place.
func intersectLocks(set, held []*simmach.Lock) []*simmach.Lock {
	out := set[:0]
	for _, l := range set {
		for _, h := range held {
			if l == h {
				out = append(out, l)
				break
			}
		}
	}
	return out
}
