package simmach

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The release-ahead kernels are scriptProc's lock workloads run by a small
// yield-first executor, the shape of the VM's dispatch loop: a dispatch
// runs up to raBudget ops, a sync op yields first when the dispatch has
// already done work, and a blocked acquire resumes owning the lock. The
// same kernel runs twice — once with every release at the start of its own
// dispatch, once releasing ahead wherever the lock has no waiter — and the
// two runs must be indistinguishable.

const (
	raCompute = iota
	raAcquire
	raRelease
)

// raBudget is the ops a dispatch may run before it yields.
const raBudget = 4

type raOp struct {
	kind int
	lock int
	// d is the compute length, or for a sync op the charge issued in its
	// dispatch before it (the VM's flag test and instrumentation).
	d Time
}

type raEnv struct {
	locks []*Lock
	// grants lists, per lock, the processors in the order they first ran
	// holding it.
	grants [][]int
	// late and displaced count, in the run that releases ahead, acquirers
	// granted a lock released ahead of a later turn, and those among them
	// that took the grant over from an earlier such acquirer.
	late, displaced int
	// hook, when set, runs at the start of every dispatch.
	hook func(p *Proc) Status
}

type raKernel struct {
	env       *raEnv
	ops       []raOp
	pc        int
	ahead     bool
	blockedOn int // the lock a blocked acquire is waiting for, or -1
}

func (k *raKernel) Step(p *Proc) Status {
	e := k.env
	if e.hook != nil {
		if st := e.hook(p); st == Restored {
			return st
		}
	}
	if k.blockedOn >= 0 {
		e.grants[k.blockedOn] = append(e.grants[k.blockedOn], p.ID())
		k.blockedOn = -1
	}
	for executed := 0; k.pc < len(k.ops); executed++ {
		if executed >= raBudget {
			return Ready
		}
		op := k.ops[k.pc]
		l := e.locks[op.lock]
		switch op.kind {
		case raCompute:
			p.Advance(op.d)
		case raAcquire:
			if executed > 0 {
				return Ready
			}
			p.Advance(op.d)
			k.pc++
			prev := l.late
			if !p.Acquire(l) {
				if k.ahead && l.late == p {
					e.late++
					if prev != nil && prev != p {
						e.displaced++
					}
				}
				k.blockedOn = op.lock
				return Blocked
			}
			e.grants[op.lock] = append(e.grants[op.lock], p.ID())
			continue
		case raRelease:
			if executed == 0 {
				p.Advance(op.d)
				p.Release(l)
				break
			}
			if !k.ahead || l.Queued() {
				return Ready
			}
			at := p.Now()
			p.Advance(op.d)
			p.ReleaseAhead(l, at)
			executed = 0 // the skipped dispatch's budget starts here
		}
		k.pc++
	}
	return Done
}

// raSpec is a random lock workload: per processor, iterations of compute,
// one or two nested critical sections taken in lock order, and compute
// after them, with charges before each sync op that differ between
// processors, so that waiters enqueue out of dispatch order.
type raSpec struct {
	nlocks int
	ops    [][]raOp
	table  *ParamTable
}

func newRASpec(seed int64, procs, nlocks, iters int, perturbed bool) raSpec {
	r := rand.New(rand.NewSource(seed))
	dur := func() Time {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(r.Intn(3000))
		default:
			return Time(r.Intn(20)) * Microsecond
		}
	}
	pre := func() Time { return Time(r.Intn(4)) * 200 }
	s := raSpec{nlocks: nlocks, ops: make([][]raOp, procs)}
	for i := range s.ops {
		var ops []raOp
		for j := 0; j < iters; j++ {
			a := r.Intn(nlocks)
			held := []int{a}
			ops = append(ops, raOp{kind: raCompute, d: dur()}, raOp{kind: raAcquire, lock: a, d: pre()})
			if b := a + 1 + r.Intn(nlocks); b < nlocks && r.Intn(2) == 0 {
				held = append(held, b)
				ops = append(ops, raOp{kind: raCompute, d: dur()}, raOp{kind: raAcquire, lock: b, d: pre()})
			}
			for k := len(held) - 1; k >= 0; k-- {
				ops = append(ops, raOp{kind: raCompute, d: dur()}, raOp{kind: raRelease, lock: held[k], d: pre()})
			}
			ops = append(ops, raOp{kind: raCompute, d: dur()})
		}
		s.ops[i] = ops
	}
	if perturbed {
		base := DefaultConfig(procs)
		var epochs []ParamEpoch
		for k, start := range []Time{0, 20 * Microsecond, 60 * Microsecond, 150 * Microsecond} {
			e := ParamEpoch{Start: start, Cfg: base}
			if k%2 == 1 {
				e.Cfg.AcquireCost = Time(1+r.Intn(5)) * Microsecond
				e.Cfg.ReleaseCost = Time(1+r.Intn(4)) * Microsecond
				e.Cfg.SpinCost = Time(1+r.Intn(3)) * 300
				e.SlowMilli = make([]int64, procs)
				for pid := range e.SlowMilli {
					e.SlowMilli[pid] = 1000 + int64(r.Intn(2000))
				}
				e.HoldEvery = int64(2 + r.Intn(4))
				e.HoldFor = Time(1+r.Intn(5)) * Microsecond
			}
			epochs = append(epochs, e)
		}
		tbl, err := NewParamTable(epochs)
		if err != nil {
			panic(err)
		}
		s.table = tbl
	}
	return s
}

// raOutcome is everything the two schedules must agree on.
type raOutcome struct {
	Clocks   []Time
	Counters []Counters
	Steps    int64
	Grants   [][]int
}

// run executes the spec, releasing ahead or not; hook is installed on the
// environment when non-nil and receives the environment and kernels.
func (s raSpec) run(t *testing.T, ahead bool, hook func(m *Machine, e *raEnv, ks []*raKernel) func(p *Proc) Status) (raOutcome, *raEnv) {
	t.Helper()
	m := New(Config{Procs: len(s.ops)})
	if s.table != nil {
		if err := m.SetParamTable(s.table); err != nil {
			t.Fatal(err)
		}
	}
	e := &raEnv{grants: make([][]int, s.nlocks)}
	for i := 0; i < s.nlocks; i++ {
		e.locks = append(e.locks, m.NewLock(fmt.Sprint("l", i)))
	}
	var ks []*raKernel
	for i, ops := range s.ops {
		k := &raKernel{env: e, ops: ops, ahead: ahead, blockedOn: -1}
		ks = append(ks, k)
		m.Start(i, k)
	}
	if hook != nil {
		e.hook = hook(m, e, ks)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := raOutcome{Steps: m.Steps(), Grants: e.grants}
	for i := range s.ops {
		out.Clocks = append(out.Clocks, m.Proc(i).Now())
		out.Counters = append(out.Counters, m.Proc(i).Counters)
	}
	return out, e
}

// checkAhead runs the spec both ways and compares the outcomes.
func checkAhead(t *testing.T, s raSpec) *raEnv {
	t.Helper()
	want, _ := s.run(t, false, nil)
	got, e := s.run(t, true, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("releasing ahead diverged from the reference schedule\n got %+v\nwant %+v", got, want)
	}
	return e
}

// FuzzReleaseAhead holds ReleaseAhead to the reference schedule: up to 16
// processors, a few locks, random critical sections and compute, with and
// without a parameter table that slows processors, changes costs and
// injects a phantom holder. The seed corpus is in testdata/fuzz.
func FuzzReleaseAhead(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, procs, nlocks, iters uint8, perturbed bool) {
		checkAhead(t, newRASpec(seed, 1+int(procs%16), 1+int(nlocks%3), 1+int(iters%12), perturbed))
	})
}

// TestReleaseAheadMatchesReference runs a fixed sweep of kernels and
// requires that it reaches both late paths: an acquirer dispatched before a
// release taken ahead, and one that takes such a grant over.
func TestReleaseAheadMatchesReference(t *testing.T) {
	late, displaced := 0, 0
	for seed := int64(1); seed <= 120; seed++ {
		procs := 2 + int(seed%15)
		e := checkAhead(t, newRASpec(seed, procs, 1+int(seed%3), 4+int(seed%8), seed%2 == 0))
		late += e.late
		displaced += e.displaced
	}
	if late == 0 || displaced == 0 {
		t.Fatalf("sweep reached %d late acquirers and %d take-overs; both paths need exercising", late, displaced)
	}
}

// TestCheckpointBetweenAheadAndLateAcquirer checkpoints at the start of a
// dispatch that precedes a release already taken ahead, lets that
// dispatch's acquire take the late grant, restores, and requires the run
// to end exactly as the uninterrupted and the reference runs do.
func TestCheckpointBetweenAheadAndLateAcquirer(t *testing.T) {
	s := raSpec{nlocks: 1, ops: [][]raOp{
		{{kind: raAcquire}, {kind: raCompute, d: 10 * Microsecond}, {kind: raRelease}, {kind: raCompute, d: 50 * Microsecond}},
		{{kind: raCompute, d: 5 * Microsecond}, {kind: raAcquire}, {kind: raCompute, d: Microsecond}, {kind: raRelease}},
	}}
	want, _ := s.run(t, false, nil)
	plain, _ := s.run(t, true, nil)
	if !reflect.DeepEqual(plain, want) {
		t.Fatalf("releasing ahead diverged\n got %+v\nwant %+v", plain, want)
	}
	restored := false
	got, e := s.run(t, true, func(m *Machine, e *raEnv, ks []*raKernel) func(p *Proc) Status {
		var ck *Checkpoint
		var kernels []raKernel
		var grants [][]int
		calls := 0
		return func(p *Proc) Status {
			calls++
			switch {
			case calls == 3:
				l := e.locks[0]
				if p.ID() != 1 || l.Held() || !l.releasedAfter(p) {
					t.Fatalf("dispatch 3 is not a late acquirer's: proc %d, lock held %v", p.ID(), l.Held())
				}
				ck = m.Checkpoint()
				for _, k := range ks {
					kernels = append(kernels, *k)
				}
				for _, g := range e.grants {
					grants = append(grants, append([]int(nil), g...))
				}
			case calls == 4 && !restored:
				if l := e.locks[0]; l.owner != 1 {
					t.Fatalf("late acquirer does not own the lock after its acquire (owner %d)", l.owner)
				}
				restored = true
				m.Restore(ck)
				for i, k := range ks {
					*k = kernels[i]
				}
				e.grants = grants
				return Restored
			}
			return Ready
		}
	})
	if !restored || e.late != 2 {
		t.Fatalf("restored %v, late grants %d; want a restore replaying one late grant", restored, e.late)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged\n got %+v\nwant %+v", got, want)
	}
}
