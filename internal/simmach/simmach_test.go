package simmach

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// scriptProc is a test Process that executes a list of steps. Each step is a
// function returning the Status the machine should see.
type scriptProc struct {
	steps []func(p *Proc) Status
	pc    int
}

func (s *scriptProc) Step(p *Proc) Status {
	if s.pc >= len(s.steps) {
		return Done
	}
	f := s.steps[s.pc]
	s.pc++
	st := f(p)
	if st == Ready && s.pc >= len(s.steps) {
		return Done
	}
	return st
}

func compute(d Time) func(p *Proc) Status {
	return func(p *Proc) Status {
		p.Advance(d)
		return Ready
	}
}

func acquire(l *Lock) func(p *Proc) Status {
	return func(p *Proc) Status {
		if p.Acquire(l) {
			return Ready
		}
		return Blocked
	}
}

func release(l *Lock) func(p *Proc) Status {
	return func(p *Proc) Status {
		p.Release(l)
		return Ready
	}
}

func arrive(b *Barrier) func(p *Proc) Status {
	return func(p *Proc) Status {
		p.BarrierArrive(b)
		return Blocked
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
		{-4 * Second, "-4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	m := New(Config{Procs: 3})
	cfg := m.Config()
	if cfg.TimerReadCost != 9*Microsecond {
		t.Errorf("TimerReadCost = %v, want 9µs", cfg.TimerReadCost)
	}
	if cfg.Procs != 3 || m.Procs() != 3 {
		t.Errorf("Procs = %d/%d, want 3", cfg.Procs, m.Procs())
	}
}

func TestZeroProcsDefaultsToOne(t *testing.T) {
	m := New(Config{})
	if m.Procs() != 1 {
		t.Fatalf("Procs() = %d, want 1", m.Procs())
	}
}

func TestPureComputeAdvancesClock(t *testing.T) {
	m := New(Config{Procs: 1})
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		compute(5 * Millisecond),
		compute(3 * Millisecond),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Proc(0).Now(); got != 8*Millisecond {
		t.Errorf("clock = %v, want 8ms", got)
	}
	if got := m.Proc(0).Counters.Busy; got != 8*Millisecond {
		t.Errorf("busy = %v, want 8ms", got)
	}
}

func TestReadTimerCharges(t *testing.T) {
	m := New(Config{Procs: 1})
	var seen Time
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		compute(1 * Millisecond),
		func(p *Proc) Status {
			seen = p.ReadTimer()
			return Ready
		},
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1*Millisecond + 9*Microsecond
	if seen != want {
		t.Errorf("ReadTimer() = %v, want %v", seen, want)
	}
	if got := m.Proc(0).Counters.TimerReads; got != 1 {
		t.Errorf("TimerReads = %d, want 1", got)
	}
}

func TestMinTimeScheduling(t *testing.T) {
	// Proc 1 has less work per step; the scheduler must interleave by time.
	m := New(Config{Procs: 2})
	var order []int
	logStep := func(d Time) func(p *Proc) Status {
		return func(p *Proc) Status {
			order = append(order, p.ID())
			p.Advance(d)
			return Ready
		}
	}
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		logStep(10 * Millisecond), logStep(10 * Millisecond),
	}})
	m.Start(1, &scriptProc{steps: []func(*Proc) Status{
		logStep(3 * Millisecond), logStep(3 * Millisecond), logStep(3 * Millisecond),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Ties at t=0 break by ID: proc 0 runs (0→10ms), then proc 1 runs three
	// steps (0→3→6→9ms), then proc 0 again.
	want := []int{0, 1, 1, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLockUncontended(t *testing.T) {
	m := New(Config{Procs: 1})
	l := m.NewLock("l")
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		acquire(l), compute(Millisecond), release(l),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Proc(0).Counters
	if c.Acquires != 1 || c.FailedAcquires != 0 {
		t.Errorf("acquires = %d, fails = %d; want 1, 0", c.Acquires, c.FailedAcquires)
	}
	wantLock := m.Config().AcquireCost + m.Config().ReleaseCost
	if c.LockTime != wantLock {
		t.Errorf("LockTime = %v, want %v", c.LockTime, wantLock)
	}
	if c.WaitTime != 0 {
		t.Errorf("WaitTime = %v, want 0", c.WaitTime)
	}
	if l.Held() {
		t.Error("lock still held after release")
	}
}

func TestLockContention(t *testing.T) {
	m := New(Config{Procs: 2})
	l := m.NewLock("l")
	// Proc 0 takes the lock at t≈0 and holds it for 10ms of compute.
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		acquire(l), compute(10 * Millisecond), release(l),
	}})
	// Proc 1 computes 1ms, then tries the lock: it must wait ~9ms.
	m.Start(1, &scriptProc{steps: []func(*Proc) Status{
		compute(Millisecond), acquire(l), release(l),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c1 := m.Proc(1).Counters
	if c1.WaitTime <= 8*Millisecond {
		t.Errorf("proc 1 WaitTime = %v, want > 8ms", c1.WaitTime)
	}
	if c1.FailedAcquires == 0 {
		t.Error("proc 1 FailedAcquires = 0, want > 0")
	}
	// Waiting time must be consistent with failed attempts times spin cost
	// (within one spin quantum).
	approx := Time(c1.FailedAcquires) * m.Config().SpinCost
	diff := c1.WaitTime - approx
	if diff < 0 {
		diff = -diff
	}
	if diff > m.Config().SpinCost {
		t.Errorf("WaitTime %v inconsistent with %d fails × %v", c1.WaitTime, c1.FailedAcquires, m.Config().SpinCost)
	}
	if c1.Acquires != 1 {
		t.Errorf("proc 1 Acquires = %d, want 1", c1.Acquires)
	}
}

func TestLockFIFOHandoff(t *testing.T) {
	// Three procs contend; handoff must follow attempt order.
	m := New(Config{Procs: 3})
	l := m.NewLock("l")
	var grantOrder []int
	grab := func(p *Proc) Status {
		if p.Acquire(l) {
			grantOrder = append(grantOrder, p.ID())
			return Ready
		}
		return Blocked
	}
	noteAndRelease := func(p *Proc) Status {
		// A blocked Acquire resumes owning the lock, so the grant is logged
		// here for waiters.
		p.Release(l)
		return Ready
	}
	for i := 0; i < 3; i++ {
		i := i
		m.Start(i, &scriptProc{steps: []func(*Proc) Status{
			compute(Time(i+1) * Millisecond), // proc 0 attempts first
			func(p *Proc) Status {
				st := grab(p)
				if st == Blocked {
					return Blocked
				}
				return Ready
			},
			func(p *Proc) Status {
				if l.owner == p.ID() {
					found := false
					for _, g := range grantOrder {
						if g == p.ID() {
							found = true
						}
					}
					if !found {
						grantOrder = append(grantOrder, p.ID())
					}
				}
				p.Advance(10 * Millisecond)
				return Ready
			},
			noteAndRelease,
		}})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(grantOrder) != 3 {
		t.Fatalf("grantOrder = %v, want 3 grants", grantOrder)
	}
	for i, id := range []int{0, 1, 2} {
		if grantOrder[i] != id {
			t.Fatalf("grantOrder = %v, want [0 1 2]", grantOrder)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := New(Config{Procs: 4})
	b := m.NewBarrier(4)
	var after []Time
	for i := 0; i < 4; i++ {
		i := i
		m.Start(i, &scriptProc{steps: []func(*Proc) Status{
			compute(Time(i+1) * Millisecond),
			arrive(b),
			func(p *Proc) Status {
				after = append(after, p.Now())
				return Ready
			},
		}})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Epochs() != 1 {
		t.Errorf("Epochs = %d, want 1", b.Epochs())
	}
	want := 4*Millisecond + m.Config().BarrierCost
	for _, tm := range after {
		if tm != want {
			t.Errorf("post-barrier clock = %v, want %v", tm, want)
		}
	}
	// The earliest arriver waited the longest.
	if w := m.Proc(0).Counters.BarrierWait; w != 3*Millisecond {
		t.Errorf("proc 0 BarrierWait = %v, want 3ms", w)
	}
	if w := m.Proc(3).Counters.BarrierWait; w != 0 {
		t.Errorf("proc 3 BarrierWait = %v, want 0", w)
	}
}

func TestBarrierReusable(t *testing.T) {
	m := New(Config{Procs: 2})
	b := m.NewBarrier(2)
	for i := 0; i < 2; i++ {
		m.Start(i, &scriptProc{steps: []func(*Proc) Status{
			arrive(b), compute(Millisecond), arrive(b), compute(Millisecond), arrive(b),
		}})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Epochs() != 3 {
		t.Errorf("Epochs = %d, want 3", b.Epochs())
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(Config{Procs: 2})
	b := m.NewBarrier(2)
	// Only one proc arrives; the other finishes. Deadlock must be reported,
	// and the report must include the stuck barrier's arrival state.
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{arrive(b)}})
	m.Start(1, &scriptProc{steps: []func(*Proc) Status{compute(Millisecond)}})
	err := m.Run()
	if err == nil {
		t.Fatal("Run() = nil error, want deadlock")
	}
	msg := err.Error()
	if want := "barrier 0: 1/2 arrived, waiting procs [0]"; !strings.Contains(msg, want) {
		t.Errorf("deadlock report %q does not include barrier state %q", msg, want)
	}
}

func TestCountersSubAdd(t *testing.T) {
	a := Counters{Acquires: 5, FailedAcquires: 3, LockTime: 10, WaitTime: 7, BarrierWait: 2, Busy: 100, TimerReads: 4}
	b := Counters{Acquires: 2, FailedAcquires: 1, LockTime: 4, WaitTime: 3, BarrierWait: 1, Busy: 40, TimerReads: 2}
	d := a.Sub(b)
	if d.Acquires != 3 || d.FailedAcquires != 2 || d.LockTime != 6 || d.WaitTime != 4 || d.BarrierWait != 1 || d.Busy != 60 || d.TimerReads != 2 {
		t.Errorf("Sub = %+v", d)
	}
	if s := d.Add(b); s != a {
		t.Errorf("Add(Sub) = %+v, want %+v", s, a)
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	m := New(Config{Procs: 1})
	l := m.NewLock("l")
	defer func() {
		if recover() == nil {
			t.Error("Release by non-owner did not panic")
		}
	}()
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{release(l)}})
	_ = m.Run()
}

func TestReacquirePanics(t *testing.T) {
	m := New(Config{Procs: 1})
	l := m.NewLock("l")
	defer func() {
		if recover() == nil {
			t.Error("re-acquire did not panic")
		}
	}()
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{acquire(l), acquire(l)}})
	_ = m.Run()
}

// randomWorkload runs a randomized lock workload and checks global
// invariants: clocks are monotone, mutual exclusion holds (interval
// disjointness is implied by the lock discipline, checked via a critical
// section counter), and waiting accounting is self-consistent.
func randomWorkload(seed int64, procs, iters int) (ok bool, reason string) {
	rng := rand.New(rand.NewSource(seed))
	m := New(Config{Procs: procs})
	locks := []*Lock{m.NewLock("a"), m.NewLock("b"), m.NewLock("c")}
	inCrit := make([]int, len(locks))
	violated := false
	for i := 0; i < procs; i++ {
		var steps []func(*Proc) Status
		for j := 0; j < iters; j++ {
			li := rng.Intn(len(locks))
			l := locks[li]
			d := Time(rng.Intn(1000)+1) * Microsecond
			steps = append(steps,
				func(p *Proc) Status {
					if p.Acquire(l) {
						return Ready
					}
					return Blocked
				},
				func(p *Proc) Status {
					inCrit[li]++
					if inCrit[li] != 1 {
						violated = true
					}
					p.Advance(d)
					return Ready
				},
				func(p *Proc) Status {
					inCrit[li]--
					p.Release(l)
					return Ready
				},
			)
		}
		m.Start(i, &scriptProc{steps: steps})
	}
	if err := m.Run(); err != nil {
		return false, err.Error()
	}
	if violated {
		return false, "mutual exclusion violated"
	}
	for i := 0; i < procs; i++ {
		c := m.Proc(i).Counters
		if c.WaitTime < 0 || c.LockTime < 0 || c.Busy < 0 {
			return false, "negative counter"
		}
		if c.Busy < c.WaitTime+c.LockTime {
			return false, "busy < wait+lock"
		}
	}
	return true, ""
}

func TestQuickLockInvariants(t *testing.T) {
	f := func(seed int64, procsRaw, itersRaw uint8) bool {
		procs := int(procsRaw%7) + 2 // 2..8
		iters := int(itersRaw%20) + 1
		ok, reason := randomWorkload(seed, procs, iters)
		if !ok {
			t.Logf("seed=%d procs=%d iters=%d: %s", seed, procs, iters, reason)
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeterminism(t *testing.T) {
	// The same seed must produce the identical final machine state.
	f := func(seed int64) bool {
		run := func() (Time, Counters) {
			rng := rand.New(rand.NewSource(seed))
			m := New(Config{Procs: 4})
			l := m.NewLock("l")
			for i := 0; i < 4; i++ {
				var steps []func(*Proc) Status
				for j := 0; j < 10; j++ {
					d := Time(rng.Intn(500)+1) * Microsecond
					steps = append(steps,
						compute(d),
						func(p *Proc) Status {
							if p.Acquire(l) {
								return Ready
							}
							return Blocked
						},
						compute(d/2),
						release(l),
					)
				}
				m.Start(i, &scriptProc{steps: steps})
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return m.MaxClock(), m.TotalCounters()
		}
		t1, c1 := run()
		t2, c2 := run()
		return t1 == t2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTraceEvents(t *testing.T) {
	m := New(Config{Procs: 2})
	var events []TraceEvent
	m.Trace = func(ev TraceEvent) { events = append(events, ev) }
	l := m.NewLock("l")
	b := m.NewBarrier(2)
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		acquire(l), compute(5 * Millisecond), release(l), arrive(b),
	}})
	m.Start(1, &scriptProc{steps: []func(*Proc) Status{
		compute(Millisecond), acquire(l), release(l), arrive(b),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceKind]int{}
	var prev Time
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Time < prev && ev.Kind != TraceBlock {
			// Events are emitted as they occur; blocks are recorded at
			// attempt time which may precede the previous grant.
			t.Logf("out-of-order event: %+v", ev)
		}
		prev = ev.Time
	}
	if kinds[TraceAcquire] != 1 || kinds[TraceGrant] != 1 {
		t.Errorf("acquires/grants = %d/%d, want 1/1", kinds[TraceAcquire], kinds[TraceGrant])
	}
	if kinds[TraceBlock] != 1 {
		t.Errorf("blocks = %d, want 1", kinds[TraceBlock])
	}
	if kinds[TraceRelease] != 2 {
		t.Errorf("releases = %d, want 2", kinds[TraceRelease])
	}
	if kinds[TraceBarrierArrive] != 2 || kinds[TraceBarrierRelease] != 1 {
		t.Errorf("barrier events = %d/%d, want 2/1", kinds[TraceBarrierArrive], kinds[TraceBarrierRelease])
	}
	if got := TraceAcquire.String(); got != "acquire" {
		t.Errorf("TraceKind string = %q", got)
	}
}

func TestSetClockOnBlockedPanics(t *testing.T) {
	m := New(Config{Procs: 2})
	l := m.NewLock("l")
	m.Start(0, &scriptProc{steps: []func(*Proc) Status{
		acquire(l),
		func(p *Proc) Status {
			defer func() {
				if recover() == nil {
					t.Error("SetClock on blocked proc did not panic")
				}
			}()
			m.SetClock(1, 5*Millisecond) // proc 1 is blocked on l
			return Ready
		},
		release(l),
	}})
	m.Start(1, &scriptProc{steps: []func(*Proc) Status{
		acquire(l), release(l),
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessFuncAdapter(t *testing.T) {
	m := New(Config{Procs: 1})
	ran := false
	m.Start(0, ProcessFunc(func(p *Proc) Status {
		ran = true
		p.Advance(Millisecond)
		return Done
	}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || m.Proc(0).Now() != Millisecond {
		t.Error("ProcessFunc did not run")
	}
	if m.Steps() != 1 {
		t.Errorf("Steps = %d, want 1", m.Steps())
	}
}

func TestStartActiveProcPanics(t *testing.T) {
	m := New(Config{Procs: 1})
	m.Start(0, ProcessFunc(func(p *Proc) Status { return Done }))
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	m.Start(0, ProcessFunc(func(p *Proc) Status { return Done }))
}
