package simmach

import "testing"

// The micro-benchmarks pin the event engine's hot paths: dispatch through
// the sorted run queue under the re-entry patterns that decide its cost
// (the plans below; at 1 proc, the still-first redispatch that never
// touches the queue), uncontended lock traffic with releases at their turn
// and taken ahead of it, contended FIFO handoff, and barrier rendezvous. Run with -benchmem: the steady state must stay
// allocation free (TestSteadyStateAllocsPerEvent asserts it).

// A plan gives processor i of procs its step count and stride for a run of
// n dispatches in all.
type plan func(i, n, procs int) (steps int, stride Time)

// distinct strides spread the re-entry points over the whole queue, and the
// shortest stride — the processor dispatched most often — re-enters nearest
// the head, with the most entries to move.
func distinct(i, n, procs int) (int, Time) { return n/procs + 1, Time(i+1) * Microsecond }

// lockstep is the String pattern: equal strides, so the processor that just
// ran re-enters behind every other one.
func lockstep(i, n, procs int) (int, Time) { return n/procs + 1, Microsecond }

// reverse is the run queue's worst case: two processors alternate while the
// rest sit far in the future, so every re-entry lands directly behind the
// departing head, in front of all the others.
func reverse(i, n, procs int) (int, Time) {
	if i < 2 {
		return n/2 + 1, Microsecond
	}
	return 1, 1 << 50
}

// startDispatch installs n dispatches of pure Advance on m under pl.
func startDispatch(m *Machine, n int, pl plan) {
	for i := 0; i < m.Procs(); i++ {
		done := 0
		steps, d := pl(i, n, m.Procs())
		m.Start(i, ProcessFunc(func(p *Proc) Status {
			if done >= steps {
				return Done
			}
			done++
			p.Advance(d)
			return Ready
		}))
	}
}

func benchDispatch(b *testing.B, procs int, pl plan) {
	m := New(Config{Procs: procs})
	startDispatch(m, b.N, pl)
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDispatch1(b *testing.B)          { benchDispatch(b, 1, distinct) }
func BenchmarkDispatch2(b *testing.B)          { benchDispatch(b, 2, distinct) }
func BenchmarkDispatch16(b *testing.B)         { benchDispatch(b, 16, distinct) }
func BenchmarkDispatch64(b *testing.B)         { benchDispatch(b, 64, distinct) }
func BenchmarkDispatch256(b *testing.B)        { benchDispatch(b, 256, distinct) }
func BenchmarkDispatchLockstep16(b *testing.B) { benchDispatch(b, 16, lockstep) }
func BenchmarkDispatchReverse16(b *testing.B)  { benchDispatch(b, 16, reverse) }

// benchPerturbedDispatch is benchDispatch with a multi-epoch parameter
// table installed — slowdown factors and phantom contention active — so the
// epoch-cursor lookup sits on the hot path. It must stay allocation free.
func benchPerturbedDispatch(b *testing.B, procs int) {
	m := New(Config{Procs: procs})
	base := DefaultConfig(procs)
	slow := make([]int64, procs)
	for i := range slow {
		slow[i] = 1000 + 500*int64(i%3)
	}
	epochs := []ParamEpoch{{Start: 0, Cfg: base}}
	for k := 1; k <= 7; k++ {
		epochs = append(epochs, ParamEpoch{
			Start: Time(k) * Millisecond, Cfg: base,
			SlowMilli: slow, HoldEvery: 64, HoldFor: 5 * Microsecond,
		})
	}
	tbl, err := NewParamTable(epochs)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetParamTable(tbl); err != nil {
		b.Fatal(err)
	}
	startDispatch(m, b.N, distinct)
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPerturbedDispatch16(b *testing.B) { benchPerturbedDispatch(b, 16) }

func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	m := New(Config{Procs: 1})
	l := m.NewLock("l")
	n := 0
	m.Start(0, ProcessFunc(func(p *Proc) Status {
		if n >= b.N {
			return Done
		}
		n++
		if !p.Acquire(l) {
			b.Fatal("uncontended acquire blocked")
		}
		p.Release(l)
		return Ready
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchContendedHandoff makes procs fight over one lock; nearly every
// grant is a blocked-waiter handoff through the FIFO queue.
func benchContendedHandoff(b *testing.B, procs int) {
	m := New(Config{Procs: procs})
	l := m.NewLock("l")
	remaining := b.N
	for i := 0; i < procs; i++ {
		holding := false
		m.Start(i, ProcessFunc(func(p *Proc) Status {
			if holding {
				holding = false
				p.Advance(10 * Microsecond)
				p.Release(l)
				return Ready
			}
			if remaining <= 0 {
				return Done
			}
			remaining--
			holding = true
			if p.Acquire(l) {
				return Ready
			}
			// A blocked Acquire resumes owning the lock.
			return Blocked
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkContendedHandoff2(b *testing.B)  { benchContendedHandoff(b, 2) }
func BenchmarkContendedHandoff16(b *testing.B) { benchContendedHandoff(b, 16) }

// BenchmarkUncontendedPairAhead16 is the traffic ReleaseAhead serves: 16
// processors, each with a lock of its own, and every dispatch an acquire,
// a critical section, the release taken ahead and the work after it — one
// dispatch a pair where yield-first releases take two.
func BenchmarkUncontendedPairAhead16(b *testing.B) {
	const procs = 16
	m := New(Config{Procs: procs})
	remaining := b.N
	for i := 0; i < procs; i++ {
		l := m.NewLock("l")
		d := Time(i+1) * Microsecond
		m.Start(i, ProcessFunc(func(p *Proc) Status {
			if remaining <= 0 {
				return Done
			}
			remaining--
			if !p.Acquire(l) {
				b.Fatal("uncontended acquire blocked")
			}
			p.Advance(d)
			p.ReleaseAhead(l, p.Now())
			p.Advance(d)
			return Ready
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchBarrier measures full rendezvous: b.N epochs of procs arrivals.
func benchBarrier(b *testing.B, procs int) {
	m := New(Config{Procs: procs})
	bar := m.NewBarrier(procs)
	for i := 0; i < procs; i++ {
		n := 0
		d := Time(i+1) * Microsecond
		m.Start(i, ProcessFunc(func(p *Proc) Status {
			if n >= b.N {
				return Done
			}
			n++
			p.Advance(d)
			p.BarrierArrive(bar)
			return Blocked
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	if bar.Epochs() != int64(b.N) {
		b.Fatalf("epochs = %d, want %d", bar.Epochs(), b.N)
	}
}

func BenchmarkBarrierRendezvous2(b *testing.B)  { benchBarrier(b, 2) }
func BenchmarkBarrierRendezvous16(b *testing.B) { benchBarrier(b, 16) }

// TestSteadyStateAllocsPerEvent asserts the zero-allocation claim: after
// warm-up (waiter queues and arrival arrays grown to capacity), lock
// handoff and barrier rendezvous must not allocate. The bound is a small
// fraction of an allocation per operation to absorb the one-time warm-up
// growth, which is amortized over the benchmark's iterations.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks; run without -short")
	}
	cases := []struct {
		name  string
		bench func(b *testing.B)
	}{
		{"dispatch-16", BenchmarkDispatch16},
		{"dispatch-lockstep-16", BenchmarkDispatchLockstep16},
		{"dispatch-reverse-16", BenchmarkDispatchReverse16},
		{"dispatch-256", BenchmarkDispatch256},
		{"dispatch-perturbed-16", func(b *testing.B) { benchPerturbedDispatch(b, 16) }},
		{"contended-handoff-16", func(b *testing.B) { benchContendedHandoff(b, 16) }},
		{"barrier-rendezvous-16", func(b *testing.B) { benchBarrier(b, 16) }},
		{"uncontended", BenchmarkUncontendedAcquireRelease},
		{"uncontended-pair-ahead-16", BenchmarkUncontendedPairAhead16},
	}
	for _, c := range cases {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run", c.name)
		}
		allocs := float64(r.MemAllocs) / float64(r.N)
		if allocs > 0.05 {
			t.Errorf("%s: %.3f allocs/op (%d allocs over %d ops), want steady-state zero",
				c.name, allocs, r.MemAllocs, r.N)
		}
	}
}
