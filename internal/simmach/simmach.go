// Package simmach implements a deterministic discrete-event shared-memory
// multiprocessor simulator. It stands in for the 16-processor Stanford DASH
// machine used in the paper's evaluation.
//
// The simulator models P processors, each with its own virtual clock. A
// central scheduler always dispatches the runnable processor with the
// smallest virtual clock (ties broken by processor ID), so executions are
// reproducible bit-for-bit regardless of the host machine. Processors
// synchronize through spin locks (with counted failed-acquire attempts, the
// quantity the paper uses to compute waiting overhead), sense-reversing
// barriers (used for synchronous policy switching), and a virtual timer
// whose read cost is configurable (the paper reports roughly 9 microseconds
// on DASH).
//
// Clients drive the machine by implementing Process: Step executes work for
// one processor up to the next machine-visible synchronization event and
// reports whether the processor is still runnable, blocked, or done. Pure
// computation is charged with Proc.Advance and never requires a yield, so
// the event count — and therefore the simulation cost — is proportional to
// the number of synchronization operations, not to the amount of simulated
// work.
package simmach

import (
	"fmt"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since machine start.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Status is the scheduling state a Process reports after a Step.
type Status int

const (
	// Ready means the processor can be dispatched again.
	Ready Status = iota
	// Blocked means the processor is waiting on a lock or barrier and must
	// not be dispatched until the machine wakes it.
	Blocked
	// Done means the processor has no more work.
	Done
	// Restored means the Step invoked Machine.Restore: the machine state
	// (including this processor's) has been reset to a checkpoint, and the
	// scheduler must discard the interrupted dispatch and continue from the
	// restored state. See checkpoint.go for the protocol.
	Restored
)

func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	case Restored:
		return "restored"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Process supplies the work a processor executes. Step must perform work for
// p up to (and including) at most one machine-visible synchronization event,
// advance p's clock accordingly, and report the resulting status. If a lock
// acquire or barrier arrival blocks the processor, Step must return Blocked;
// the machine redispatches the processor after it is woken.
type Process interface {
	Step(p *Proc) Status
}

// ProcessFunc adapts a function to the Process interface.
type ProcessFunc func(p *Proc) Status

// Step calls f(p).
func (f ProcessFunc) Step(p *Proc) Status { return f(p) }

// Config carries the machine's cost model. Zero values are replaced by the
// defaults below, which are calibrated to the hardware the paper reports.
type Config struct {
	// Procs is the number of processors. Default 1. The machine sets no
	// upper limit; what is supported is what is exercised: the experiments
	// run 1–16 as the paper does, dfserved accepts 1–64, the run queue's
	// model test covers 64, and BenchmarkDispatch256 is the largest machine
	// measured (a dispatch there costs about twice one at 16).
	Procs int
	// TimerReadCost is charged for each ReadTimer call (paper: ~9µs on DASH).
	TimerReadCost Time
	// AcquireCost is charged for each successful lock acquire.
	AcquireCost Time
	// ReleaseCost is charged for each lock release.
	ReleaseCost Time
	// SpinCost is the cost of one failed acquire attempt; waiting time is
	// accounted as failed attempts times SpinCost.
	SpinCost Time
	// BarrierCost is charged to every processor when it is released from a
	// barrier, after its clock is advanced to the last arrival time.
	BarrierCost Time
}

// DefaultConfig returns the cost model used throughout the reproduction,
// calibrated to the paper's Stanford DASH data: the timer read costs ~9µs
// (§4.1), and the Barnes-Hut locking numbers (Table 3: 70.4s of locking
// overhead for 15.47M acquire/release pairs) imply ~4.5µs per pair on that
// machine.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:         procs,
		TimerReadCost: 9 * Microsecond,
		AcquireCost:   2500 * Nanosecond,
		ReleaseCost:   2000 * Nanosecond,
		SpinCost:      500 * Nanosecond,
		BarrierCost:   2 * Microsecond,
	}
}

// Normalized returns the configuration with every zero field replaced by
// its default — the exact cost model a Machine built from c would use.
// Cache keys are derived from the normalized form, so a zero Config and an
// explicitly defaulted one address the same simulation results.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Procs)
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.TimerReadCost <= 0 {
		c.TimerReadCost = d.TimerReadCost
	}
	if c.AcquireCost <= 0 {
		c.AcquireCost = d.AcquireCost
	}
	if c.ReleaseCost <= 0 {
		c.ReleaseCost = d.ReleaseCost
	}
	if c.SpinCost <= 0 {
		c.SpinCost = d.SpinCost
	}
	if c.BarrierCost <= 0 {
		c.BarrierCost = d.BarrierCost
	}
	return c
}

// Counters aggregates the per-processor instrumentation the paper's
// generated code collects (§4.3): lock acquire counts, failed acquire
// counts, and the corresponding locking, waiting, and busy times.
type Counters struct {
	// Acquires counts successful acquire/release pairs.
	Acquires int64
	// FailedAcquires counts failed attempts to acquire a held lock.
	FailedAcquires int64
	// LockTime is the time spent executing successful acquire and release
	// constructs (locking overhead).
	LockTime Time
	// WaitTime is the time spent spinning on held locks (waiting overhead).
	WaitTime Time
	// BarrierWait is the time spent waiting at barriers. The paper accounts
	// this separately from lock waiting; it is part of the effective
	// sampling interval, not of the measured policy overhead.
	BarrierWait Time
	// Busy is total time the processor's clock advanced for any reason.
	Busy Time
	// TimerReads counts ReadTimer calls.
	TimerReads int64
}

// Sub returns c - o, component-wise. It is used to compute per-phase deltas
// from two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Acquires:       c.Acquires - o.Acquires,
		FailedAcquires: c.FailedAcquires - o.FailedAcquires,
		LockTime:       c.LockTime - o.LockTime,
		WaitTime:       c.WaitTime - o.WaitTime,
		BarrierWait:    c.BarrierWait - o.BarrierWait,
		Busy:           c.Busy - o.Busy,
		TimerReads:     c.TimerReads - o.TimerReads,
	}
}

// Add returns c + o, component-wise.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Acquires:       c.Acquires + o.Acquires,
		FailedAcquires: c.FailedAcquires + o.FailedAcquires,
		LockTime:       c.LockTime + o.LockTime,
		WaitTime:       c.WaitTime + o.WaitTime,
		BarrierWait:    c.BarrierWait + o.BarrierWait,
		Busy:           c.Busy + o.Busy,
		TimerReads:     c.TimerReads + o.TimerReads,
	}
}

// Proc is one simulated processor.
type Proc struct {
	id      int
	m       *Machine
	clock   Time
	status  Status
	process Process
	// queued reports whether the processor has an entry in the run queue.
	queued bool
	// epoch is the processor's cursor into the machine's parameter table
	// (amortized-O(1) lookup of the epoch containing the clock). Unused
	// when no table is installed.
	epoch int32

	// Counters holds the processor's instrumentation. Clients may snapshot
	// it at phase boundaries; the machine only ever adds to it.
	Counters Counters
}

// ID returns the processor's index, in [0, Procs).
func (p *Proc) ID() int { return p.id }

// Now returns the processor's virtual clock. Reading it is free; use
// ReadTimer to model a timer access with its hardware cost.
func (p *Proc) Now() Time { return p.clock }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Advance charges d of pure computation to the processor. When a parameter
// table with a slowdown factor for this processor is active, the charged
// time is scaled accordingly (integer milli arithmetic, so perturbed runs
// stay deterministic).
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("simmach: negative advance")
	}
	if e := p.activeEpoch(); e != nil && e.SlowMilli != nil {
		d = d * Time(e.SlowMilli[p.id]) / 1000
	}
	p.clock += d
	p.Counters.Busy += d
}

// ReadTimer models reading the hardware timer: it charges the configured
// timer cost and returns the clock value after the read completes. The
// timer itself is not slowed by per-processor slowdown factors — it is a
// fixed hardware cost — so the charge bypasses Advance.
func (p *Proc) ReadTimer() Time {
	c := p.activeCfg().TimerReadCost
	p.clock += c
	p.Counters.Busy += c
	p.Counters.TimerReads++
	return p.clock
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	// TraceAcquire is a successful uncontended acquire.
	TraceAcquire TraceKind = iota
	// TraceBlock is a failed acquire that blocks the processor.
	TraceBlock
	// TraceGrant is a lock handoff to a blocked processor.
	TraceGrant
	// TraceRelease is a lock release.
	TraceRelease
	// TraceBarrierArrive is an arrival at a barrier.
	TraceBarrierArrive
	// TraceBarrierRelease is a barrier completion (one event per rendezvous,
	// attributed to the last arriver).
	TraceBarrierRelease
)

func (k TraceKind) String() string {
	switch k {
	case TraceAcquire:
		return "acquire"
	case TraceBlock:
		return "block"
	case TraceGrant:
		return "grant"
	case TraceRelease:
		return "release"
	case TraceBarrierArrive:
		return "barrier-arrive"
	case TraceBarrierRelease:
		return "barrier-release"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one synchronization event, as delivered to Machine.Trace.
type TraceEvent struct {
	Kind TraceKind
	Proc int
	Time Time
	Lock string // lock name, or empty for barrier events
}

// Machine is the simulated multiprocessor.
type Machine struct {
	cfg      Config
	procs    []*Proc
	ready    runQueue
	locks    []*Lock
	barriers []*Barrier
	steps    int64
	running  bool
	// table, when non-nil, is the time-indexed parameter table every cost
	// charge consults (see paramtable.go). acqSeq counts uncontended
	// acquires made while a phantom-holder epoch is active; it drives the
	// deterministic every-Nth contention injection.
	table  *ParamTable
	acqSeq int64
	// cur is the processor whose Step is executing (the checkpoint anchor);
	// restorePending is set by Restore and consumed when the interrupted
	// Step reports Restored.
	cur            *Proc
	restorePending bool
	// curAt is the clock cur's dispatch began at: with cur's ID, the key
	// that orders the dispatch against a release taken ahead of its turn
	// (ReleaseAhead).
	curAt Time

	// Trace, when set, receives every synchronization event as it occurs
	// in virtual time. It must not call back into the machine.
	Trace func(TraceEvent)
}

func (m *Machine) trace(k TraceKind, proc int, t Time, lock string) {
	if m.Trace != nil {
		m.Trace(TraceEvent{Kind: k, Proc: proc, Time: t, Lock: lock})
	}
}

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{id: i, m: m, status: Done}
	}
	// Twice the live maximum: push slides the window back to the front when
	// it reaches the end, so a slide moves at most Procs entries and happens
	// at most once per Procs dispatches.
	m.ready.items = make([]runEntry, 0, 2*cfg.Procs)
	return m
}

// Config returns the machine's (defaulted) configuration.
func (m *Machine) Config() Config { return m.cfg }

// Procs returns the number of processors.
func (m *Machine) Procs() int { return len(m.procs) }

// Proc returns processor i.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Steps returns the number of dispatches of the reference schedule so far:
// every dispatch the scheduler performed, plus one for each release taken
// ahead of its turn (ReleaseAhead), which stands for the dispatch it skipped.
func (m *Machine) Steps() int64 { return m.steps }

// MaxClock returns the largest processor clock.
func (m *Machine) MaxClock() Time {
	var max Time
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// TotalCounters returns the sum of all processors' counters.
func (m *Machine) TotalCounters() Counters {
	var t Counters
	for _, p := range m.procs {
		t = t.Add(p.Counters)
	}
	return t
}

// Start installs a process on processor i and marks it runnable. It may be
// called before Run or from within a Step (to fork work onto idle
// processors).
func (m *Machine) Start(i int, proc Process) {
	p := m.procs[i]
	if p.status != Done {
		panic(fmt.Sprintf("simmach: proc %d already active", i))
	}
	p.process = proc
	p.status = Ready
	m.push(p)
}

// SetClock force-sets processor i's clock. It is intended for runtime
// systems that park processors during serial sections and bring them back at
// the current time of the serial processor. It must not be used on a
// processor that is blocked.
func (m *Machine) SetClock(i int, t Time) {
	p := m.procs[i]
	if p.status == Blocked {
		panic("simmach: SetClock on blocked proc")
	}
	p.clock = t
	if p.queued {
		m.ready.fix(p)
	}
}

// Run dispatches processors until every processor is Done. It returns an
// error on deadlock (some processor blocked with nothing runnable).
//
//dfvet:noalloc
func (m *Machine) Run() error {
	if m.running {
		panic("simmach: Run is not reentrant")
	}
	m.running = true
	defer func() { m.running = false }() //dfvet:allow noalloc once per Run call, not per dispatched event
	for {
		if m.ready.len() == 0 {
			for _, p := range m.procs {
				if p.status == Blocked {
					return fmt.Errorf("simmach: deadlock: %s", m.stateString()) //dfvet:allow noalloc terminal deadlock report; the machine stops here
				}
			}
			return nil
		}
		p := m.procs[m.ready.pop()]
		p.queued = false
		m.cur = p
		// The inner loop keeps the dispatch it can decide without the outer
		// loop: p runs again while it is still first — the only runnable
		// processor (serial sections), or one whose step left it ahead of the
		// queue head — and otherwise trades places with the head.
		for {
			m.steps++
			m.curAt = p.clock
			st := p.process.Step(p)
			if st == Ready {
				p.status = Ready
				if p.queued {
					break // woken during its own step: its queue entry stands
				}
				if m.ready.len() == 0 || m.ready.follows(p.clock, int32(p.id)) {
					continue
				}
				next := m.procs[m.ready.pop()]
				m.push(p)
				next.queued = false
				p, m.cur = next, next
				continue
			}
			if st == Blocked {
				// The blocking primitive already recorded the wait; if the
				// processor was woken during its own step (e.g. it was the
				// last arrival at a barrier), it is already back in the queue.
				if p.status == Ready {
					m.push(p)
				}
			} else if st == Done {
				p.status = Done
				p.process = nil
			} else if st == Restored {
				// The step restored a checkpoint: every processor's state
				// (p's included) was reset by Restore. Discard the dispatch
				// and resume scheduling from the restored run queue.
				m.checkRestored(p)
			} else {
				panic(fmt.Sprintf("simmach: bad status %v from proc %d", st, p.id))
			}
			break
		}
	}
}

//dfvet:noalloc
func (m *Machine) push(p *Proc) {
	if p.queued {
		return
	}
	p.status = Ready
	p.queued = true
	m.ready.push(p.clock, int32(p.id))
}

func (m *Machine) stateString() string {
	var b strings.Builder
	for _, p := range m.procs {
		fmt.Fprintf(&b, "proc %d: %v at %v; ", p.id, p.status, p.clock)
	}
	for _, l := range m.locks {
		if l.owner >= 0 || l.waiting() > 0 {
			fmt.Fprintf(&b, "lock %q: owner %d, %d waiters; ", l.name, l.owner, l.waiting())
		}
	}
	for i, bar := range m.barriers {
		if bar.count == 0 {
			continue
		}
		fmt.Fprintf(&b, "barrier %d: %d/%d arrived, waiting procs %v; ", i, bar.count, bar.n, bar.waitingIDs())
	}
	if ps := m.PerturbState(); ps != "" {
		fmt.Fprintf(&b, "%s; ", ps)
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// runQueue holds the runnable processors as items[head:], sorted ascending
// by (clock, id) — a strict total order, so the dispatch sequence depends on
// nothing else. Dispatch takes the head; a processor re-enters at the slot a
// binary search finds, moving the entries behind it up by one, which is few
// or none in the traffic the simulator sees: the processor that just ran has
// usually advanced past most of the others. Entries carry the key by value
// and hold no pointers, so comparing them dereferences nothing and moving
// them needs no GC write barrier. A queued processor's clock changes only
// through SetClock, which re-keys its entry with fix.
type runQueue struct {
	items []runEntry
	head  int
}

type runEntry struct {
	clock Time
	id    int32
}

// after reports whether e is dispatched after (clock, id).
func (e runEntry) after(clock Time, id int32) bool {
	return e.clock > clock || (e.clock == clock && e.id > id)
}

func (q *runQueue) len() int { return len(q.items) - q.head }

// follows reports whether the head is dispatched after (clock, id), the
// key of a processor that is not in the queue.
func (q *runQueue) follows(clock Time, id int32) bool {
	return q.items[q.head].after(clock, id)
}

//dfvet:noalloc
func (q *runQueue) pop() int32 {
	id := q.items[q.head].id
	q.head++
	return id
}

//dfvet:noalloc
func (q *runQueue) push(clock Time, id int32) {
	n := len(q.items)
	if n == cap(q.items) {
		n = copy(q.items, q.items[q.head:])
		q.head = 0
	}
	q.items = q.items[:n+1]
	// The slot is the first live entry after (clock, id).
	lo, hi := q.head, n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); q.items[mid].after(clock, id) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < n {
		copy(q.items[lo+1:], q.items[lo:n])
	}
	q.items[lo] = runEntry{clock, id}
}

// fix re-keys p's entry after its clock changed in place.
//
//dfvet:noalloc
func (q *runQueue) fix(p *Proc) {
	q.remove(p)
	q.push(p.clock, int32(p.id))
}

// remove deletes p's entry.
func (q *runQueue) remove(p *Proc) {
	i := q.head
	for q.items[i].id != int32(p.id) {
		i++
	}
	q.items = q.items[:i+copy(q.items[i:], q.items[i+1:])]
}

// Lock is a spin lock with FIFO handoff. A processor that fails to acquire
// a held lock blocks in the simulator, and the time it would have spent
// spinning is charged — as waiting time and as failed acquire attempts — when
// the lock is handed to it. This is arithmetically identical to simulating
// each spin iteration, but costs O(1) events per handoff.
//
// The waiter queue exploits a property of the scheduler: processors are
// dispatched in non-decreasing (clock, id) order, so waiters normally
// block — and are appended — in exactly the FIFO handoff order
// (earliest attempt first, ties by processor ID). While that invariant
// holds, handoff pops the queue head in O(1); an append that violates it
// (a processor that advanced past a later-dispatched one before blocking)
// flips the queue into a scan fallback until it drains. The backing array
// is retained across rendezvous, so steady-state lock traffic allocates
// nothing.
//
// A release taken ahead of its turn (ReleaseAhead) frees the lock at once
// and leaves a timestamp: the key (aheadAt, aheadID) of the dispatch the
// reference schedule would have released it in, and the time aheadEnd that
// release ended. A processor whose dispatch precedes that key would have
// found the lock still held, so Acquire grants it the lock as that release
// would have (a late acquirer). late is the processor so granted, with the
// time it asked and its counters before the grant: a later late acquirer
// that precedes it in FIFO order takes the grant over, as the reference
// handoff would have chosen it.
type Lock struct {
	m     *Machine
	name  string
	owner int // processor ID, or -1 when free
	// waiters[whead:] is the active queue; the prefix is already handed
	// off. The array is reset (keeping capacity) whenever it drains.
	waiters []lockWaiter
	whead   int
	// unordered is set when an append broke the non-decreasing (since, id)
	// invariant; Release then falls back to an O(n) scan for the FIFO
	// winner until the queue drains.
	unordered bool

	aheadAt, aheadEnd Time
	aheadID           int
	late              *Proc
	lateSince         Time
	lateBefore        Counters
}

type lockWaiter struct {
	p     *Proc
	since Time
}

// waiting returns the number of queued waiters.
func (l *Lock) waiting() int { return len(l.waiters) - l.whead }

// NewLock creates a lock. The name appears in traces and deadlock reports.
func (m *Machine) NewLock(name string) *Lock {
	l := &Lock{m: m, name: name, owner: -1, aheadAt: -1}
	m.locks = append(m.locks, l)
	return l
}

// Name returns the lock's name.
func (l *Lock) Name() string { return l.name }

// Held reports whether the lock is currently owned. A lock released ahead
// of its turn reads free at once, to every processor.
func (l *Lock) Held() bool { return l.owner >= 0 }

// Acquire attempts to take the lock for p. On success it charges the
// acquire cost and returns true. If the lock is held, p is blocked and
// false is returned; when the holder releases the lock, p is woken already
// owning it (with waiting time and failed-attempt counts charged), and
// execution continues after the Acquire call site. The caller's Step must
// return Blocked when Acquire returns false.
//
// A free lock whose last release was taken ahead of a turn that follows p's
// dispatch is held as far as p is concerned: p is charged as that release
// would have granted it the lock — its wait, failed attempts and acquire at
// the release's end time — and is woken at once, and Acquire still returns
// false.
//
//dfvet:noalloc
func (p *Proc) Acquire(l *Lock) bool {
	if l.owner == p.id {
		panic(fmt.Sprintf("simmach: proc %d re-acquiring lock %q", p.id, l.name))
	}
	if l.owner < 0 {
		if l.releasedAfter(p) {
			l.grantLate(p)
			return false
		}
		cfg := &p.m.cfg
		if e := p.activeEpoch(); e != nil {
			cfg = &e.Cfg
			if e.HoldEvery > 0 {
				p.m.acqSeq++
				if p.m.acqSeq%e.HoldEvery == 0 {
					// A phantom background holder has the lock: spin until it
					// releases, charged exactly like a real contended wait.
					d := e.HoldFor
					fails := int64(d / cfg.SpinCost)
					if fails < 1 {
						fails = 1
					}
					p.clock += d
					p.Counters.Busy += d
					p.Counters.WaitTime += d
					p.Counters.FailedAcquires += fails
				}
			}
		}
		l.owner = p.id
		c := cfg.AcquireCost
		p.clock += c
		p.Counters.Busy += c
		p.Counters.LockTime += c
		p.Counters.Acquires++
		p.m.trace(TraceAcquire, p.id, p.clock, l.name)
		return true
	}
	if q := l.late; q != nil && l.owner == q.id && l.releasedAfter(p) &&
		(p.clock < l.lateSince || p.clock == l.lateSince && p.id < q.id) {
		// The release taken ahead would have handed the lock to p, not to
		// the late acquirer granted it so far, which has not run since: q
		// goes back to waiting as it was, and p takes the grant.
		p.m.ready.remove(q)
		q.queued = false
		q.status = Blocked
		q.clock, q.Counters = l.lateSince, l.lateBefore
		l.enqueue(q)
		l.grantLate(p)
		return false
	}
	l.enqueue(p)
	p.status = Blocked
	p.m.trace(TraceBlock, p.id, p.clock, l.name)
	return false
}

// releasedAfter reports whether l's last release taken ahead of its turn
// follows p's dispatch in the reference schedule, so that p, the
// dispatching processor, would still have found l held.
func (l *Lock) releasedAfter(p *Proc) bool {
	at := p.m.curAt
	return at < l.aheadAt || at == l.aheadAt && p.id < l.aheadID
}

// grantLate grants l to p, a late acquirer, at the end of the release taken
// ahead, keeping what a later late acquirer needs to take the grant over.
func (l *Lock) grantLate(p *Proc) {
	l.late, l.lateSince, l.lateBefore = p, p.clock, p.Counters
	p.status = Blocked
	p.m.trace(TraceBlock, p.id, p.clock, l.name)
	l.grant(p, p.clock, l.aheadEnd)
}

// enqueue appends p to the waiter queue, checking the FIFO-order
// invariant (non-decreasing since, ties in increasing processor ID).
//
//dfvet:noalloc
func (l *Lock) enqueue(p *Proc) {
	if l.whead == len(l.waiters) {
		// Queue drained: reuse the backing array and restore fast handoff.
		l.waiters = l.waiters[:0]
		l.whead = 0
		l.unordered = false
	}
	if n := len(l.waiters); n > l.whead && !l.unordered {
		last := l.waiters[n-1]
		if p.clock < last.since || (p.clock == last.since && p.id < last.p.id) {
			l.unordered = true
		}
	}
	l.waiters = append(l.waiters, lockWaiter{p: p, since: p.clock}) //dfvet:allow noalloc amortized: enqueue reuses the drained waiter array
}

// TryAcquire attempts to take the lock without blocking. On failure it
// charges one failed spin attempt and returns false. A lock whose release
// taken ahead follows p's dispatch counts as held.
//
//dfvet:noalloc
func (p *Proc) TryAcquire(l *Lock) bool {
	if l.owner < 0 && !l.releasedAfter(p) {
		return p.Acquire(l)
	}
	c := p.activeCfg().SpinCost
	p.clock += c
	p.Counters.Busy += c
	p.Counters.WaitTime += c
	p.Counters.FailedAcquires++
	return false
}

// Release releases the lock, charging the release cost, and hands the lock
// to the longest-waiting processor, if any.
//
//dfvet:noalloc
func (p *Proc) Release(l *Lock) {
	if l.owner != p.id {
		panic(fmt.Sprintf("simmach: proc %d releasing lock %q owned by %d", p.id, l.name, l.owner))
	}
	c := p.activeCfg().ReleaseCost
	p.clock += c
	p.Counters.Busy += c
	p.Counters.LockTime += c
	releaseTime := p.clock
	p.m.trace(TraceRelease, p.id, releaseTime, l.name)
	if l.whead == len(l.waiters) {
		l.owner = -1
		return
	}
	// FIFO handoff: earliest attempt wins; ties broken by processor ID.
	// While the queue-order invariant holds, that is exactly the head.
	var w lockWaiter
	if !l.unordered {
		w = l.waiters[l.whead]
		l.waiters[l.whead] = lockWaiter{}
		l.whead++
	} else {
		best := l.whead
		for i := l.whead + 1; i < len(l.waiters); i++ {
			wi, wb := l.waiters[i], l.waiters[best]
			if wi.since < wb.since || (wi.since == wb.since && wi.p.id < wb.p.id) {
				best = i
			}
		}
		w = l.waiters[best]
		copy(l.waiters[best:], l.waiters[best+1:])
		l.waiters = l.waiters[:len(l.waiters)-1]
	}
	if l.whead == len(l.waiters) {
		l.waiters = l.waiters[:0]
		l.whead = 0
		l.unordered = false
	}
	l.grant(w.p, w.since, releaseTime)
}

// grant hands l to wp, which has spun on it since since, when the release
// at time at ends the spin, and wakes wp.
//
//dfvet:noalloc
func (l *Lock) grant(wp *Proc, since, at Time) {
	l.owner = wp.id
	waited := at - since
	if waited < 0 {
		waited = 0
	}
	wp.clock = at
	// The waiter's costs (spin granularity and the closing acquire) come
	// from the epoch in effect at the handoff time — the moment the spin
	// resolves — not at the possibly much earlier block time.
	wcfg := wp.activeCfg()
	fails := int64(waited / wcfg.SpinCost)
	if fails < 1 {
		fails = 1
	}
	wp.Counters.Busy += waited
	wp.Counters.WaitTime += waited
	wp.Counters.FailedAcquires += fails
	// Charge the successful acquire that ends the spin.
	ac := wcfg.AcquireCost
	wp.clock += ac
	wp.Counters.Busy += ac
	wp.Counters.LockTime += ac
	wp.Counters.Acquires++
	l.m.trace(TraceGrant, wp.id, wp.clock, l.name)
	l.m.wake(wp)
}

// Queued reports whether a processor is waiting for the lock. A release
// may be taken ahead of its turn only when none is.
func (l *Lock) Queued() bool { return l.waiting() > 0 }

// ReleaseAhead releases l from inside a dispatch that began earlier,
// sparing the dispatch the reference schedule would have released it in:
// one that begins at clock at on p — p's clock when it would have yielded
// for the release, before any charge the release brings — and counted in
// Machine.Steps all the same. It charges exactly what Release charges and
// requires that no processor is queued on l (see Queued). l keeps the
// skipped dispatch's key and the release's end time, so that a processor
// dispatched before that key still finds l held (Acquire, TryAcquire).
//
// What p does after the release, until its dispatch ends, runs ahead of
// the processors dispatched before the key. Lock state keeps the reference
// order through the timestamp; anything else of p's they read — its
// counters, trace events — they see in host order. A caller that needs
// those in schedule order releases with Release at the start of a dispatch.
//
//dfvet:noalloc
func (p *Proc) ReleaseAhead(l *Lock, at Time) {
	if l.Queued() {
		panic(fmt.Sprintf("simmach: proc %d releasing lock %q ahead with processors queued", p.id, l.name))
	}
	p.Release(l)
	l.aheadAt, l.aheadID, l.aheadEnd = at, p.id, p.clock
	l.late = nil
	p.m.steps++
}

//dfvet:noalloc
func (m *Machine) wake(p *Proc) {
	p.status = Ready
	m.push(p)
}

// Barrier is a reusable sense-reversing barrier over a fixed set of
// processors. The paper's generated code uses barriers to switch policies
// synchronously, so that every processor uses the same policy during each
// sampling interval (§4.1).
//
// Arrival state is a pair of per-processor arrays indexed by processor ID
// (an epoch stamp and an arrival time), so arrival, the duplicate-arrival
// check, and release are all scans-free per event: a rendezvous costs O(1)
// per arrival plus one in-ID-order release pass, and allocates nothing.
type Barrier struct {
	m     *Machine
	n     int
	count int
	// arrivedEpoch[id] == epochs+1 marks a processor that has arrived in
	// the epoch currently being gathered; since[id] is its arrival time.
	arrivedEpoch []int64
	since        []Time
	epochs       int64

	// OnComplete, when set, runs at the moment the last processor arrives,
	// before any participant is charged its barrier wait or woken. The
	// argument is the last arrival time. Runtime systems use it to perform
	// the policy-switch bookkeeping exactly once per rendezvous, with all
	// counters reflecting work strictly before the barrier (§4.1,
	// synchronous switching).
	OnComplete func(last Time)
}

// NewBarrier creates a barrier for n processors.
func (m *Machine) NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("simmach: barrier size must be positive")
	}
	b := &Barrier{
		m:            m,
		n:            n,
		arrivedEpoch: make([]int64, len(m.procs)),
		since:        make([]Time, len(m.procs)),
	}
	m.barriers = append(m.barriers, b)
	return b
}

// Epochs returns how many times the barrier has completed.
func (b *Barrier) Epochs() int64 { return b.epochs }

// waitingIDs lists the processors currently waiting at the barrier, for
// deadlock reports.
func (b *Barrier) waitingIDs() []int {
	var ids []int
	for id, e := range b.arrivedEpoch {
		if e == b.epochs+1 {
			ids = append(ids, id)
		}
	}
	return ids
}

// Arrive records p's arrival. If p is the last arrival the barrier
// completes: every participant's clock advances to the last arrival time
// plus the barrier cost, waiting time is charged to Counters.BarrierWait,
// and all participants (including p) are made runnable. Arrive always
// blocks the caller; the caller's Step must return Blocked immediately
// after calling it. Work after the barrier must be issued on the next Step.
//
//dfvet:noalloc
func (p *Proc) BarrierArrive(b *Barrier) {
	cur := b.epochs + 1
	if b.arrivedEpoch[p.id] == cur {
		panic(fmt.Sprintf("simmach: proc %d arrived twice at barrier", p.id))
	}
	b.arrivedEpoch[p.id] = cur
	b.since[p.id] = p.clock
	b.count++
	p.status = Blocked
	b.m.trace(TraceBarrierArrive, p.id, p.clock, "")
	if b.count < b.n {
		return
	}
	var last Time
	for id, e := range b.arrivedEpoch {
		if e == cur && b.since[id] > last {
			last = b.since[id]
		}
	}
	if b.OnComplete != nil {
		b.OnComplete(last)
	}
	release := last + b.m.cfgAt(last).BarrierCost
	// The per-ID arrays are naturally ID-ordered, so waking in ID order —
	// the determinism requirement — needs no sort.
	for id, e := range b.arrivedEpoch {
		if e != cur {
			continue
		}
		wp := b.m.procs[id]
		wait := last - b.since[id]
		wp.Counters.BarrierWait += wait
		wp.Counters.Busy += release - b.since[id]
		wp.clock = release
		b.m.wake(wp)
	}
	b.count = 0
	b.epochs++
	b.m.trace(TraceBarrierRelease, p.id, release, "")
}
