package perturb

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simmach"
)

func TestEmptySchedule(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule not Empty")
	}
	if !(&Schedule{Name: "x"}).Empty() {
		t.Error("changeless schedule not Empty")
	}
	tbl, err := nilSched.Table(simmach.DefaultConfig(4))
	if err != nil || tbl != nil {
		t.Errorf("nil schedule Table = %v, %v; want nil, nil", tbl, err)
	}
	if nilSched.Key() != "" {
		t.Error("nil schedule Key not empty")
	}
	if got, want := nilSched.AppendCanonical(nil), (&Schedule{}).AppendCanonical(nil); !bytes.Equal(got, want) {
		t.Error("nil and empty schedules encode differently")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Schedule{
		{Changes: []Change{{At: 0}}},
		{Changes: []Change{{At: 2}, {At: 2}}},
		{Changes: []Change{{At: 1, RampFor: -1}}},
		{Changes: []Change{{At: 1, AcquireMilli: -5}}},
		{Changes: []Change{{At: 1, Slow: []Slowdown{{Proc: -2, Milli: 1000}}}}},
		{Changes: []Change{{At: 1, Slow: []Slowdown{{Proc: 0, Milli: 0}}}}},
		{Changes: []Change{{At: 1, HoldEvery: -3}}},
		{Changes: []Change{{At: 1, HoldEvery: 2}}}, // no HoldFor
		{Resolution: -1, Changes: []Change{{At: 1, HoldEvery: -1}}},
		// Past the bounds: the ramp of a 142-byte request body that asked
		// Table for two million epochs, ramps adding up past the cap,
		// multipliers and slowdowns that overflow the cost arithmetic, a
		// ramp that ends past the horizon or overflows it, and a phantom
		// holder that never lets go.
		{Resolution: 1, Changes: []Change{{At: 1, RampFor: 2 * simmach.Millisecond, AcquireMilli: 5000}}},
		{Changes: []Change{{At: 1, RampFor: maxRampEpochs * DefaultResolution}}},
		{Resolution: 1, Changes: []Change{{At: 1, RampFor: maxRampEpochs / 2}, {At: maxRampEpochs, RampFor: maxRampEpochs / 2}}},
		{Changes: []Change{{At: 1, AcquireMilli: 1 << 62}}},
		{Changes: []Change{{At: 1, TimerMilli: maxMilli + 1}}},
		{Changes: []Change{{At: 1, Slow: []Slowdown{{Proc: -1, Milli: maxMilli + 1}}}}},
		{Changes: []Change{{At: maxTime + 1}}},
		{Resolution: 1 << 62, Changes: []Change{{At: 1 << 62, RampFor: 1 << 62}}},
		{Changes: []Change{{At: 1, HoldEvery: 1, HoldFor: maxHoldFor + 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
		if _, err := s.Table(simmach.DefaultConfig(2)); err == nil {
			t.Errorf("case %d: Table accepted %+v", i, s)
		}
	}
}

// TestValidateAcceptsBounds pins the bounds as inclusive: a schedule at
// every one of them validates and compiles.
func TestValidateAcceptsBounds(t *testing.T) {
	good := []Schedule{
		{Changes: []Change{{At: 1, RampFor: (maxRampEpochs - 1) * DefaultResolution}}},
		{Resolution: 1, Changes: []Change{{At: 1, RampFor: maxRampEpochs/2 - 1}, {At: maxRampEpochs, RampFor: maxRampEpochs/2 - 1}}},
		{Changes: []Change{{At: 1, AcquireMilli: maxMilli, Slow: []Slowdown{{Proc: -1, Milli: maxMilli}}}}},
		{Resolution: maxTime, Changes: []Change{{At: maxTime / 2, RampFor: maxTime / 2}}},
		{Changes: []Change{{At: maxTime, HoldEvery: 1, HoldFor: maxHoldFor}}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
		if _, err := s.Table(simmach.DefaultConfig(2)); err != nil {
			t.Errorf("case %d: Table: %v", i, err)
		}
	}
}

func TestTableStepChange(t *testing.T) {
	base := simmach.DefaultConfig(2)
	s := &Schedule{Changes: []Change{
		{At: 100 * simmach.Millisecond, AcquireMilli: 4000, HoldEvery: 8, HoldFor: 50 * simmach.Microsecond},
	}}
	tbl, err := s.Table(base)
	if err != nil {
		t.Fatal(err)
	}
	es := tbl.Epochs()
	if len(es) != 2 {
		t.Fatalf("epochs = %d, want 2", len(es))
	}
	if es[0].Start != 0 || es[0].Cfg != base || es[0].HoldEvery != 0 || es[0].SlowMilli != nil {
		t.Errorf("epoch 0 = %+v, want pristine base", es[0])
	}
	e1 := es[1]
	if e1.Start != 100*simmach.Millisecond {
		t.Errorf("epoch 1 start = %v", e1.Start)
	}
	if want := 4 * base.AcquireCost; e1.Cfg.AcquireCost != want {
		t.Errorf("epoch 1 acquire = %v, want %v", e1.Cfg.AcquireCost, want)
	}
	if e1.Cfg.ReleaseCost != base.ReleaseCost || e1.Cfg.SpinCost != base.SpinCost {
		t.Errorf("unchanged costs drifted: %+v", e1.Cfg)
	}
	if e1.HoldEvery != 8 || e1.HoldFor != 50*simmach.Microsecond {
		t.Errorf("contention = every %d for %v", e1.HoldEvery, e1.HoldFor)
	}
}

func TestTableRampInterpolates(t *testing.T) {
	base := simmach.DefaultConfig(1)
	s := &Schedule{
		Resolution: 25 * simmach.Millisecond,
		Changes: []Change{
			{At: 100 * simmach.Millisecond, RampFor: 100 * simmach.Millisecond, AcquireMilli: 5000},
		},
	}
	tbl, err := s.Table(base)
	if err != nil {
		t.Fatal(err)
	}
	es := tbl.Epochs()
	// Base epoch, then 5 ramp points (k=0..4 new epochs at 100,125,...,200ms).
	if len(es) != 6 {
		t.Fatalf("epochs = %d, want 6: %+v", len(es), es)
	}
	if es[1].Start != 100*simmach.Millisecond || es[1].Cfg.AcquireCost != base.AcquireCost {
		t.Errorf("ramp start epoch = %+v, want base costs at 100ms", es[1])
	}
	mid := es[3] // k=2 of 4 → halfway: 3000‰
	if mid.Start != 150*simmach.Millisecond {
		t.Errorf("mid epoch start = %v", mid.Start)
	}
	if want := 3 * base.AcquireCost; mid.Cfg.AcquireCost != want {
		t.Errorf("mid acquire = %v, want %v", mid.Cfg.AcquireCost, want)
	}
	last := es[5]
	if last.Start != 200*simmach.Millisecond || last.Cfg.AcquireCost != 5*base.AcquireCost {
		t.Errorf("final epoch = %+v, want 5× acquire at 200ms", last)
	}
}

func TestTableSlowAndInheritance(t *testing.T) {
	base := simmach.DefaultConfig(4)
	s := &Schedule{Changes: []Change{
		{At: 10 * simmach.Millisecond, Slow: []Slowdown{{Proc: 1, Milli: 2000}, {Proc: 9, Milli: 4000}}},
		{At: 20 * simmach.Millisecond, AcquireMilli: 2000},
		{At: 30 * simmach.Millisecond, Slow: []Slowdown{{Proc: -1, Milli: 1000}}},
	}}
	tbl, err := s.Table(base)
	if err != nil {
		t.Fatal(err)
	}
	es := tbl.Epochs()
	if len(es) != 4 {
		t.Fatalf("epochs = %d, want 4", len(es))
	}
	// Out-of-range proc 9 silently ignored; proc 1 slowed.
	if want := []int64{1000, 2000, 1000, 1000}; len(es[1].SlowMilli) != 4 || es[1].SlowMilli[1] != 2000 || es[1].SlowMilli[0] != 1000 {
		t.Errorf("epoch 1 slow = %v, want %v", es[1].SlowMilli, want)
	}
	// The cost change inherits the slowdown.
	if es[2].SlowMilli == nil || es[2].SlowMilli[1] != 2000 {
		t.Errorf("epoch 2 slow = %v, want inherited slowdown", es[2].SlowMilli)
	}
	if es[2].Cfg.AcquireCost != 2*base.AcquireCost {
		t.Errorf("epoch 2 acquire = %v", es[2].Cfg.AcquireCost)
	}
	// Restoring every factor to 1000 normalizes back to a nil slice, and
	// the earlier cost change persists.
	if es[3].SlowMilli != nil {
		t.Errorf("epoch 3 slow = %v, want nil after reset", es[3].SlowMilli)
	}
	if es[3].Cfg.AcquireCost != 2*base.AcquireCost {
		t.Errorf("epoch 3 acquire = %v, want inherited 2×", es[3].Cfg.AcquireCost)
	}
}

func TestCanonicalEncodingDistinguishesSchedules(t *testing.T) {
	a := &Schedule{Changes: []Change{{At: 1, HoldEvery: 1, HoldFor: 2}}}
	b := &Schedule{Changes: []Change{{At: 1, HoldEvery: 1, HoldFor: 3}}}
	c := &Schedule{Name: "renamed", Changes: []Change{{At: 1, HoldEvery: 1, HoldFor: 2}}}
	if a.Key() == b.Key() {
		t.Error("schedules differing in HoldFor share a key")
	}
	if a.Key() != c.Key() {
		t.Error("Name participates in the canonical encoding")
	}
	for _, names := range [][2]string{{"crossover", "ramp"}, {"ramp", "periodic"}, {"periodic", "skew"}} {
		x, _ := Scenario(names[0])
		y, _ := Scenario(names[1])
		if x.Key() == y.Key() {
			t.Errorf("scenarios %s and %s share a key", names[0], names[1])
		}
	}
}

func TestScenariosCompile(t *testing.T) {
	if _, ok := Scenario("no-such"); ok {
		t.Error("unknown scenario resolved")
	}
	for _, name := range ScenarioNames() {
		s, ok := Scenario(name)
		if !ok {
			t.Fatalf("built-in %s missing", name)
		}
		if s.Name != name {
			t.Errorf("scenario %s has Name %q", name, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", name, err)
		}
		for _, procs := range []int{1, 8, 64} {
			if _, err := s.Table(simmach.DefaultConfig(procs)); err != nil {
				t.Errorf("scenario %s does not compile at %d procs: %v", name, procs, err)
			}
		}
		if s.FirstChangeAt() <= 0 {
			t.Errorf("scenario %s has no positive first change", name)
		}
	}
}

// FuzzSchedule feeds raw JSON to the schedule decoder, the form a schedule
// takes in a /run request body. Nothing may panic; a JSON round trip must
// leave the canonical encoding (the cache key's input) byte-equal; Table
// must refuse whatever Validate refuses; and whatever Validate accepts must
// compile at 1 and 8 processors within the epoch cap, with strictly
// increasing epoch starts and every cost at least 1ns.
func FuzzSchedule(f *testing.F) {
	for _, name := range ScenarioNames() {
		s, _ := Scenario(name)
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if json.Unmarshal(data, &s) != nil {
			return
		}
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var back Schedule
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if !bytes.Equal(back.AppendCanonical(nil), s.AppendCanonical(nil)) {
			t.Fatalf("JSON round trip changed the canonical encoding of %s", data)
		}
		valid := s.Validate() == nil
		for _, procs := range []int{1, 8} {
			tbl, err := s.Table(simmach.DefaultConfig(procs))
			if !valid {
				if err == nil {
					t.Fatalf("Table compiled a schedule Validate rejects: %s", data)
				}
				continue
			}
			if err != nil {
				t.Fatalf("procs=%d: valid schedule did not compile: %v", procs, err)
			}
			if s.Empty() {
				continue
			}
			es := tbl.Epochs()
			if len(es) > 1+len(s.Changes)+maxRampEpochs {
				t.Fatalf("procs=%d: %d epochs from %d changes", procs, len(es), len(s.Changes))
			}
			for i, e := range es {
				if i > 0 && e.Start <= es[i-1].Start {
					t.Fatalf("procs=%d: epoch %d starts at %v, after %v", procs, i, e.Start, es[i-1].Start)
				}
				c := e.Cfg
				if min(c.AcquireCost, c.ReleaseCost, c.SpinCost, c.BarrierCost, c.TimerReadCost) < 1 {
					t.Fatalf("procs=%d: epoch %d has a cost below 1ns: %+v", procs, i, c)
				}
			}
		}
	})
}
