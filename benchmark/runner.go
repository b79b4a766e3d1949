package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// op is one closed-loop request: the caller waits for its reply before
// issuing the next. run does the timed work inside the op's root span and
// returns a check to be made after the clock has stopped.
type op struct {
	name string
	run  func(sc scope) (check func() error, err error)
}

// world is one fully set-up instance of a workload.
type world struct {
	// ops is the closed-loop client's op list; it cycles through the list
	// until the window ends. There is one client: the callers of oblrun,
	// dfbench and /run each wait for their reply, and on a 2-CPU host a
	// second client measures the scheduler, not the program.
	ops []op
	// beforeCycle, when set, runs before each pass over ops (fresh Suite and
	// cache for the suite workload). Its time counts towards throughput but
	// towards no op's latency.
	beforeCycle func() error
	// onWindow, when set, is told each window's tracer (nil: untraced)
	// before the client starts, for spans recorded off the op's goroutine.
	onWindow func(tr *tracer)
	// verify is the end-state check probePropagate makes after its window.
	verify func() error
	// layer adds the workload's window-derived per-layer metrics.
	layer func(st *windowStats, out metricSet)
	// digests returns the sim-* reference digests, keyed as committed.
	digests func() map[string]string
	close   func()
}

// pass is one whole cycle through the op list, reduced when it ends so
// that a window holds one pass's samples at a time (serve completes 300 k
// ops in a window; kept whole they were most of peak_rss_mb).
type pass struct {
	dur      time.Duration // beforeCycle included
	n        int           // correct ops
	sum      time.Duration // of their latencies
	p50, p95 time.Duration
}

type lat struct {
	name string
	dur  time.Duration
}

// windowStats is what one measured window produced.
//
// rate, p50 and p95 are taken over whole passes: each pass over the op list
// yields its own throughput and percentiles, and the window reports the
// best decile of passes (the 90th percentile of the passes' throughputs,
// the 10th of their latency percentiles). A pass always holds the same mix
// of ops, so unlike ops compare like with like. The best decile rather than
// the median because interference from the shared host only ever slows a
// pass down, and it comes in bursts (seen while sizing: passes at 30-38 op/s
// scattered through a window otherwise at 43-45) and in spells of 10-40 s in
// which memory latency doubles. The fast side of the distribution is the
// code's own speed and the slow side is the neighbours'; a change to the
// code moves every pass. Over ten runs the 90th percentile of pass
// throughputs spread about half as wide as their median (README,
// "Calibration"). The partial last pass is left out.
type windowStats struct {
	attempted, failed int
	errs              []string // the first few failures
	rate              float64
	p50, p95          time.Duration
	// passes holds every whole pass in time order, or the partial one alone
	// when not one whole pass fitted. samples and meanLat cover their
	// correct ops.
	passes  []pass
	samples int
	meanLat time.Duration
	// byName holds, per op name, its median latency in each pass.
	byName map[string][]time.Duration
}

func (st *windowStats) fail(name string, err error) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

// reduce folds one pass's correct ops into a pass and into byName.
func (st *windowStats) reduce(cur []lat, dur time.Duration) pass {
	p := pass{dur: dur, n: len(cur)}
	sort.Slice(cur, func(i, j int) bool { return cur[i].dur < cur[j].dur })
	names := map[string][]time.Duration{}
	all := make([]time.Duration, len(cur))
	for i, l := range cur {
		all[i] = l.dur
		p.sum += l.dur
		names[l.name] = append(names[l.name], l.dur) // sorted, as cur is
	}
	p.p50, p.p95 = percentile(all, 50), percentile(all, 95)
	for name, ds := range names {
		st.byName[name] = append(st.byName[name], percentile(ds, 50))
	}
	return p
}

// runWindow drives w's client for d and returns what it saw. tr is nil for
// an untraced window.
func runWindow(w *world, d time.Duration, tr *tracer) *windowStats {
	if w.onWindow != nil {
		w.onWindow(tr)
	}
	st := &windowStats{byName: map[string][]time.Duration{}}
	cur := make([]lat, 0, len(w.ops))
	start := time.Now()
	var id int32
	for whole := true; whole; {
		cur = cur[:0]
		passStart := time.Now()
		if w.beforeCycle != nil {
			if err := w.beforeCycle(); err != nil {
				st.attempted++
				st.fail("before-cycle", err)
				break
			}
		}
		for _, o := range w.ops {
			if time.Since(start) >= d {
				whole = false
				break
			}
			id++
			root := tr.begin("op", -1, id)
			t := time.Now()
			check, err := o.run(scope{tr: tr, op: id, parent: root})
			dur := time.Since(t)
			tr.end(root)
			if err == nil && check != nil {
				err = check()
			}
			st.attempted++
			if err != nil {
				st.fail(o.name, err)
			} else {
				cur = append(cur, lat{o.name, dur})
			}
		}
		if whole || len(st.passes) == 0 {
			// Not one whole pass fitted: report what there is.
			st.passes = append(st.passes, st.reduce(cur, time.Since(passStart)))
		}
	}
	st.summarize()
	return st
}

// summarize derives the window's statistics from its passes.
func (st *windowStats) summarize() {
	var rates []float64
	var p50s, p95s []time.Duration
	var sum time.Duration
	for _, p := range st.passes {
		if p.n == 0 {
			continue
		}
		rates = append(rates, float64(p.n)/p.dur.Seconds())
		p50s, p95s = append(p50s, p.p50), append(p95s, p.p95)
		st.samples += p.n
		sum += p.sum
	}
	if st.samples == 0 {
		return
	}
	sort.Float64s(rates)
	st.rate = rates[rank(len(rates), 90)]
	st.p50, st.p95 = quantileDur(p50s, 10), quantileDur(p95s, 10)
	st.meanLat = sum / time.Duration(st.samples)
}

// passRates is each pass's throughput, in time order: how steady the host
// was during the window.
func (st *windowStats) passRates() []float64 {
	out := make([]float64, len(st.passes))
	for i, p := range st.passes {
		out[i] = float64(p.n) / p.dur.Seconds()
	}
	return out
}

// passDurs is each pass's duration, in time order.
func (st *windowStats) passDurs() []time.Duration {
	out := make([]time.Duration, len(st.passes))
	for i, p := range st.passes {
		out[i] = p.dur
	}
	return out
}

// rank is the index of the p-th percentile among n sorted values (nearest
// rank); n must be positive.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
}

// percentile returns the p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// quantileDur returns the p-th percentile of ds, which need not be sorted.
func quantileDur(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, p)
}

func medianDur(ds []time.Duration) time.Duration { return quantileDur(ds, 50) }

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t)
	}
	return medianDur(ds)
}
