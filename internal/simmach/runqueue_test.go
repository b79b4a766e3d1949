package simmach

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// queueModel drives a machine's run queue through the operations the
// scheduler and its clients perform on it and checks every one against a
// reference that keeps the queued (clock, id) keys in a map and sorts them.
type queueModel struct {
	t   *testing.T
	m   *Machine
	ref map[int]Time // queued processor -> the clock it is keyed by
	// slides counts pushes that moved a non-empty window back to the front
	// of the backing array (the head cursor wrapping).
	slides int
}

func newQueueModel(t *testing.T, procs int) *queueModel {
	return &queueModel{t: t, m: New(Config{Procs: procs}), ref: map[int]Time{}}
}

// sorted returns the reference's keys in dispatch order.
func (q *queueModel) sorted() []runEntry {
	want := make([]runEntry, 0, len(q.ref))
	for id, c := range q.ref {
		want = append(want, runEntry{c, int32(id)})
	}
	sort.Slice(want, func(i, j int) bool { return want[j].after(want[i].clock, want[i].id) })
	return want
}

func (q *queueModel) check(op string) {
	q.t.Helper()
	r := &q.m.ready
	if got, want := fmt.Sprint(r.items[r.head:]), fmt.Sprint(q.sorted()); got != want {
		q.t.Fatalf("after %s: queue %s, reference %s", op, got, want)
	}
	for _, p := range q.m.procs {
		if _, in := q.ref[p.id]; in != p.queued {
			q.t.Fatalf("after %s: proc %d queued = %v, reference %v", op, p.id, p.queued, in)
		}
	}
}

// idle returns the first processor at or after from (cyclically) that is
// not queued, or nil when every processor is.
func (q *queueModel) idle(from int) *Proc {
	n := len(q.m.procs)
	for i := 0; i < n; i++ {
		if p := q.m.procs[(from+i)%n]; !p.queued {
			return p
		}
	}
	return nil
}

func (q *queueModel) push(p *Proc, clock Time) {
	r := &q.m.ready
	if len(r.items) == cap(r.items) && r.len() > 0 {
		q.slides++
	}
	p.clock = clock
	q.m.push(p)
	q.ref[p.id] = clock
}

func (q *queueModel) pop() *Proc {
	want := q.sorted()[0]
	p := q.m.procs[q.m.ready.pop()]
	p.queued = false
	delete(q.ref, p.id)
	if int32(p.id) != want.id || p.clock != want.clock {
		q.t.Fatalf("pop = proc %d at %v, reference proc %d at %v", p.id, p.clock, want.id, want.clock)
	}
	return p
}

// apply interprets ops two bytes at a time: an operation and its argument.
// Clocks come from a four-value range, so equal clocks — and with them the
// id tie-break — are the common case.
func (q *queueModel) apply(ops []byte) {
	n := len(q.m.procs)
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		clock := Time(arg % 4)
		switch op := ops[i] % 4; op {
		case 0: // a woken or started processor enters
			if p := q.idle(arg); p != nil {
				q.push(p, clock)
			}
			q.check("push")
		case 1: // dispatch
			if len(q.ref) > 0 {
				q.pop()
			}
			q.check("pop")
		case 2: // SetClock on any processor: the one route into fix
			p := q.m.procs[arg%n]
			q.m.SetClock(p.id, clock)
			if p.queued {
				q.ref[p.id] = clock
			}
			q.check("SetClock")
		case 3: // Run's exchange: the stepped processor no longer precedes the head
			p := q.idle(arg)
			if p == nil || len(q.ref) == 0 {
				continue
			}
			head := q.sorted()[0]
			p.clock = head.clock + clock
			if q.m.ready.follows(p.clock, int32(p.id)) != (p.clock == head.clock && int32(p.id) < head.id) {
				q.t.Fatalf("follows(%v, %d) wrong against head %v", p.clock, p.id, head)
			}
			if q.m.ready.follows(p.clock, int32(p.id)) {
				continue // still first: Run redispatches without touching the queue
			}
			q.pop()
			q.push(p, p.clock)
			q.check("exchange")
		}
	}
	for len(q.ref) > 0 {
		q.pop()
	}
	q.check("drain")
}

// TestReadyQueueModel runs long random operation sequences at the machine
// sizes the issue names; every sequence must outlast the backing array so
// the head cursor wraps with entries live.
func TestReadyQueueModel(t *testing.T) {
	for _, procs := range []int{1, 2, 16, 64} {
		t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(procs)))
			ops := make([]byte, 20000)
			rng.Read(ops)
			q := newQueueModel(t, procs)
			q.apply(ops)
			if procs > 1 && q.slides == 0 {
				t.Fatal("the head cursor never wrapped with entries live")
			}
		})
	}
}

func FuzzReadyQueue(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(2), []byte{0, 0, 0, 1, 4, 0, 4, 1, 4, 0, 4, 1, 4, 0})
	f.Add(uint8(16), []byte{0, 3, 0, 2, 0, 1, 2, 1, 3, 2, 1, 0, 4, 7, 0, 5, 2, 5})
	f.Add(uint8(64), []byte{0, 9, 0, 8, 3, 9, 4, 1, 1, 0, 2, 8})
	f.Fuzz(func(t *testing.T, procs uint8, ops []byte) {
		newQueueModel(t, 1+int(procs)%64).apply(ops)
	})
}

// TestRestoreResetsQueueCursor checkpoints, keeps running until the queue's
// head cursor has moved, restores, and requires the dispatch sequence from
// the checkpoint on to equal the uninterrupted run's. Restore rebuilds the
// queue by pushing, so a cursor left where the interrupted run had it would
// hide or reorder the restored entries.
func TestRestoreResetsQueueCursor(t *testing.T) {
	const procs, per, ckAt, restoreAt = 5, 12, 8, 19
	type dispatch struct {
		proc int
		at   Time
	}
	run := func(interrupt bool) []dispatch {
		m := New(Config{Procs: procs})
		var log []dispatch
		done := make([]int, procs)
		var ck *Checkpoint
		var ckDone []int
		var ckLog int
		restored := false
		for i := 0; i < procs; i++ {
			id := i
			m.Start(i, ProcessFunc(func(p *Proc) Status {
				if interrupt && ck == nil && len(log) == ckAt {
					ck, ckDone, ckLog = m.Checkpoint(), append([]int(nil), done...), len(log)
				}
				if interrupt && !restored && len(log) == restoreAt {
					if m.ready.head == 0 {
						t.Fatal("head cursor still at zero; the restore would not exercise the reset")
					}
					restored = true
					m.Restore(ck)
					copy(done, ckDone)
					log = log[:ckLog]
					return Restored
				}
				log = append(log, dispatch{id, p.Now()})
				if done[id] == per {
					return Done
				}
				done[id]++
				// Strides 1, 2, 3, 1, 2 µs: re-entry points vary and clocks tie.
				p.Advance(Time(1+id%3) * Microsecond)
				return Ready
			}))
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if interrupt && !restored {
			t.Fatal("run ended before the restore point")
		}
		return log
	}
	want, got := run(false), run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch sequence diverged after restore\n got %v\nwant %v", got, want)
	}
}
