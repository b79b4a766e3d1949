package simmach

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/clonecheck"
)

// ckWorker is a lock-and-barrier workload with explicitly snapshotable
// client state, so checkpoint determinism can be tested at the machine
// level without the full interpreter on top.
type ckWorker struct {
	env   *ckEnv
	id    int
	phase int // 0 = acquire, 1 = critical+release, 2 = after barrier
	iters int
}

type ckEnv struct {
	m      *Machine
	lock   *Lock
	bar    *Barrier
	shared int64
	rounds int
	procs  int

	// hook, when set, runs at the start of every step with the global step
	// count; it may checkpoint or restore. hookWork is the worker list the
	// hook snapshots as client state.
	hook     func(p *Proc, w *ckWorker) Status
	hookWork []*ckWorker
}

type ckClientSnap struct {
	shared int64
	phases []int
	iters  []int
	work   []*ckWorker
}

func (e *ckEnv) snapClient(work []*ckWorker) *ckClientSnap {
	s := &ckClientSnap{shared: e.shared, work: work}
	for _, w := range work {
		s.phases = append(s.phases, w.phase)
		s.iters = append(s.iters, w.iters)
	}
	return s
}

func (e *ckEnv) restoreClient(s *ckClientSnap) {
	e.shared = s.shared
	for i, w := range s.work {
		w.phase = s.phases[i]
		w.iters = s.iters[i]
	}
}

func (w *ckWorker) Step(p *Proc) Status {
	e := w.env
	if e.hook != nil {
		if st := e.hook(p, w); st == Restored {
			return st
		}
	}
	switch w.phase {
	case 0:
		p.Advance(Time(1000 + 100*w.id))
		w.phase = 1
		if !p.Acquire(e.lock) {
			return Blocked
		}
		return Ready
	case 1:
		e.shared += int64(w.id + 1)
		p.Advance(500)
		p.Release(e.lock)
		w.iters++
		if w.iters%e.rounds == 0 {
			w.phase = 2
			p.BarrierArrive(e.bar)
			return Blocked
		}
		w.phase = 0
		return Ready
	case 2:
		if w.iters >= 3*e.rounds {
			return Done
		}
		w.phase = 0
		return Ready
	}
	panic("bad phase")
}

type ckFinal struct {
	clocks   []Time
	counters []Counters
	steps    int64
	shared   int64
	total    Counters
	max      Time
}

func runCkWorkload(t *testing.T, procs int, table *ParamTable, hook func(e *ckEnv) func(p *Proc, w *ckWorker) Status) ckFinal {
	t.Helper()
	m := New(Config{Procs: procs})
	if table != nil {
		if err := m.SetParamTable(table); err != nil {
			t.Fatal(err)
		}
	}
	e := &ckEnv{m: m, lock: m.NewLock("l"), bar: m.NewBarrier(procs), rounds: 5, procs: procs}
	var work []*ckWorker
	for i := 0; i < procs; i++ {
		w := &ckWorker{env: e, id: i}
		work = append(work, w)
		m.Start(i, w)
	}
	if hook != nil {
		e.hook = hook(e)
		// Expose the worker list to the hook through the env.
		e.hookWork = work
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	f := ckFinal{steps: m.Steps(), shared: e.shared, total: m.TotalCounters(), max: m.MaxClock()}
	for i := 0; i < procs; i++ {
		f.clocks = append(f.clocks, m.Proc(i).Now())
		f.counters = append(f.counters, m.Proc(i).Counters)
	}
	return f
}

func ckPerturbTable(procs int) *ParamTable {
	base := DefaultConfig(procs)
	slow := make([]int64, procs)
	for i := range slow {
		slow[i] = 1000 + int64(i)*500
	}
	tbl, err := NewParamTable([]ParamEpoch{
		{Start: 0, Cfg: base},
		{Start: 30 * Microsecond, Cfg: base, SlowMilli: slow, HoldEvery: 3, HoldFor: 4 * Microsecond},
		{Start: 90 * Microsecond, Cfg: base},
	})
	if err != nil {
		panic(err)
	}
	return tbl
}

// TestCheckpointRestoreByteIdentical checkpoints mid-run, keeps executing,
// restores, and verifies that the final machine state is identical to an
// uninterrupted run — clocks, per-proc counters, step count and client
// state — across proc counts and perturbation tables.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, procs := range []int{1, 3} {
		for _, perturbed := range []bool{false, true} {
			name := fmt.Sprintf("procs=%d/perturbed=%v", procs, perturbed)
			t.Run(name, func(t *testing.T) {
				var table *ParamTable
				if perturbed {
					table = ckPerturbTable(procs)
				}
				want := runCkWorkload(t, procs, table, nil)
				for _, ckAt := range []int64{3, 17, 40} {
					restoreAt := ckAt + 25
					got := runCkWorkload(t, procs, table, func(e *ckEnv) func(p *Proc, w *ckWorker) Status {
						var ck *Checkpoint
						var client *ckClientSnap
						var stepsSeen int64
						restored := false
						return func(p *Proc, w *ckWorker) Status {
							stepsSeen++
							if stepsSeen == ckAt {
								ck = e.m.Checkpoint()
								client = e.snapClient(e.hookWork)
							}
							if stepsSeen == restoreAt && !restored {
								restored = true
								e.m.Restore(ck)
								e.restoreClient(client)
								return Restored
							}
							return Ready
						}
					})
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Fatalf("ckAt=%d: restored run diverged\n got %+v\nwant %+v", ckAt, got, want)
					}
				}
			})
		}
	}
}

// TestRestoreDiscardsLateLocks verifies that locks created after the
// checkpoint are discarded by Restore.
func TestRestoreDiscardsLateLocks(t *testing.T) {
	m := New(Config{Procs: 1})
	step := 0
	var ck *Checkpoint
	m.Start(0, ProcessFunc(func(p *Proc) Status {
		step++
		switch step {
		case 1:
			ck = m.Checkpoint()
			m.NewLock("late")
			return Ready
		case 2:
			if len(m.locks) != 1 {
				t.Errorf("expected 1 lock before restore, have %d", len(m.locks))
			}
			m.Restore(ck)
			return Restored
		default:
			return Done
		}
	}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.locks) != 0 {
		t.Fatalf("expected late lock discarded, have %d locks", len(m.locks))
	}
}

// TestCloneCoversEveryField holds each checkpointed type's clone to its
// struct: with every field filled, no slice or map of the clone may share
// storage with the original. A field added to Proc, Lock or Barrier and
// not deep-copied by its clone fails here, by name. Pointers (the machine,
// a waiter's processor, the process) are shared by design.
func TestCloneCoversEveryField(t *testing.T) {
	for _, path := range slices.Concat(
		clonecheck.Shared((*Proc).clone),
		clonecheck.Shared((*Lock).clone),
		clonecheck.Shared((*Barrier).clone),
	) {
		t.Errorf("%s: the clone shares it with the original; deep-copy it in clone", path)
	}
}
