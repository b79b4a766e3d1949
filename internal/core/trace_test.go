package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// tracesGolden pins every decision the controllers make — phase, running
// version and deadline after each call, then the full sample, switch and
// stat history — over a grid of configurations and a fixed measurement
// stream. It was generated by the two separate implementations that
// preceded the single phase machine, so any divergence from them is a byte
// diff. Regenerate (only for a reviewed decision change) with:
//
//	CORE_REGEN_GOLDEN=1 go test ./internal/core -run TestControllerTracesMatchGolden
const tracesGolden = "testdata/ctl_traces.golden"

// lcg is the fixed measurement stream: a 64-bit linear congruential
// generator, so the traces depend on nothing but this file.
type lcg uint64

func (g *lcg) next(n int64) int64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int64(uint64(*g)>>33) % n
}

// traceSeed is the warm-start knowledge the seeded scenarios use: a winner
// in the middle of the space, and stats that leave every third policy
// never sampled.
func traceSeed(n int) Seed {
	st := make([]PolicyStats, n)
	for i := range st {
		k := (i + 1) % 3
		st[i] = PolicyStats{TimesSampled: k, TimesChosen: k / 2, LastOverhead: 0.05 * float64(i%7), TotalOverhead: 0.05 * float64(i%7) * float64(k)}
	}
	return Seed{Winner: n / 2, WinnerOverhead: 0.15, Stats: st}
}

// traceScenario drives one controller and returns its trace, plus how many
// executions it ended in the middle of a sampling and of a production
// interval.
func traceScenario(t *testing.T, kind string, n int, flags int, seeding string) (string, int, int) {
	t.Helper()
	policies := manyPolicies(n)
	policies[0].Cutoff = CutoffLocking
	if n > 1 {
		policies[n-1].Cutoff = CutoffWaiting
	}
	cfg := Config{
		Policies: policies, TargetSampling: 1000, TargetProduction: 10000,
		EarlyCutoff: flags&1 != 0, OrderByHistory: flags&2 != 0,
		SpanExecutions: flags&4 != 0, AutoTuneProduction: flags&8 != 0,
	}
	c, err := NewCtl(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s n=%d cutoff=%v history=%v span=%v autotune=%v seed=%s\n",
		kind, n, cfg.EarlyCutoff, cfg.OrderByHistory, cfg.SpanExecutions, cfg.AutoTuneProduction, seeding)
	state := func(call string) {
		fmt.Fprintf(&b, "%s %.1s %d %d\n", call, c.Phase(), c.CurrentPolicy(), c.Deadline())
	}
	seedWith := func(name string, f func(Seed) error) {
		if err := f(traceSeed(n)); err != nil {
			fmt.Fprintf(&b, "%s: %v\n", name, err)
		}
		state(name)
	}
	g := lcg(uint64(n)*1000 + uint64(flags)*10)
	// measure synthesizes the instrumentation of span nanoseconds running
	// policy p: per-policy overheads that shift every ten events (so the
	// best policy changes and both cut-off components come and go), plus
	// stream noise.
	measure := func(p int, span Nanos, event int) Measurement {
		epoch := int64(event / 10)
		exec := span * 4
		lockMilli := (int64(p)*37+epoch*11)%17*25 + g.next(20)
		waitMilli := (int64(p)*13+epoch*7)%11*25 + g.next(20)
		return Measurement{
			Acquires: 100 + g.next(50), FailedAcquires: g.next(10),
			LockTime: exec * Nanos(lockMilli) / 1000, WaitTime: exec * Nanos(waitMilli) / 1000, ExecTime: exec,
		}
	}
	if seeding == "seed" {
		seedWith("seed", c.Seed)
	}
	now := Nanos(0)
	c.BeginExecution(now)
	state("begin")
	midSampling, midProduction := 0, 0
	lateAt := 1
	if n == 1 {
		lateAt = 0 // a one-policy round has no second interval to seed before
	}
	// Executions last n+1 and n+3 events by turns: a full round of n
	// samples then ends inside its production interval, the next execution
	// inside the round after it; shorter rounds (cut-offs, history skips,
	// eliminated arms) land the ends elsewhere.
	nextEnd, gap := n+1, n+3
	for event := 0; event < 12+2*n; event++ {
		if seeding == "late" && event == lateAt {
			seedWith("late", c.Seed)
		}
		if event == nextEnd {
			nextEnd, gap = nextEnd+gap, 2*n+4-gap
			// End the execution part-way through the interval in flight,
			// idle a while, and start the next one.
			if c.Phase() == Sampling {
				midSampling++
			} else {
				midProduction++
			}
			p, start := c.CurrentPolicy(), now
			now += (c.Deadline() - now) * Nanos(1+g.next(8)) / 10
			c.EndExecution(now, measure(p, now-start, event))
			state("end")
			now += Nanos(500 + g.next(5000))
			c.BeginExecution(now)
			state("begin")
			continue
		}
		p, start := c.CurrentPolicy(), now
		now = c.Deadline() + Nanos(g.next(200))
		if !c.Expired(now) {
			t.Fatalf("not expired at %d, deadline %d", now, c.Deadline())
		}
		c.CompletePhase(now, measure(p, now-start, event))
		state("complete")
	}
	c.EndExecution(now+1, measure(c.CurrentPolicy(), 1, 0))
	state("end")
	for _, s := range c.Samples() {
		fmt.Fprintf(&b, "sample %.2s %d %d-%d %d %d %d %v\n", s.Kind, s.Policy, s.Start, s.End,
			s.Meas.LockTime, s.Meas.WaitTime, s.Meas.ExecTime, s.Overhead)
	}
	for _, s := range c.Switches() {
		fmt.Fprintf(&b, "switch %d %d %d\n", s.Round, s.Policy, s.At)
	}
	for i, s := range c.Stats() {
		fmt.Fprintf(&b, "stat %d %d %d %v %v\n", i, s.TimesSampled, s.TimesChosen, s.LastOverhead, s.TotalOverhead)
	}
	w, ok := c.LastWinner()
	fmt.Fprintf(&b, "winner %d %v %v rounds %d best %d\n", w, ok, c.LastWinnerOverhead(), c.Rounds(), c.BestKnownPolicy())
	return b.String(), midSampling, midProduction
}

func TestControllerTracesMatchGolden(t *testing.T) {
	var b strings.Builder
	midSampling, midProduction := 0, 0
	for _, kind := range []string{KindRoundRobin, KindUCB} {
		for _, n := range []int{1, 3, 7, 12} {
			for flags := 0; flags < 16; flags++ {
				for _, seeding := range []string{"none", "seed", "late"} {
					trace, ms, mp := traceScenario(t, kind, n, flags, seeding)
					b.WriteString(trace)
					midSampling += ms
					midProduction += mp
				}
			}
		}
	}
	if midSampling == 0 || midProduction == 0 {
		t.Fatalf("executions ended mid-sampling %d times, mid-production %d: the grid must cover both", midSampling, midProduction)
	}
	got := b.String()
	if os.Getenv("CORE_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", tracesGolden, len(got))
		return
	}
	want, err := os.ReadFile(tracesGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with CORE_REGEN_GOLDEN=1): %v", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	header := ""
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			header = wl[i]
		}
		if wl[i] != gl[i] {
			t.Fatalf("trace mismatch at line %d (%s):\n  golden: %q\n  got:    %q", i+1, header, wl[i], gl[i])
		}
	}
	t.Fatalf("trace mismatch: golden has %d lines, got %d", len(wl), len(gl))
}
