package bench

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
)

// adaptCrossoverUCBGolden is the adapt-crossover render under the UCB
// selector followed by every production entry behind it, captured from the
// separate bandit controller that preceded the single phase machine: the
// one tier-1 cell that drives core.KindUCB end to end. Regenerate with
// BENCH_REGEN_GOLDEN=1, as for the quick-suite golden.
const adaptCrossoverUCBGolden = "testdata/adapt_crossover_ucb.golden"

// TestAdaptExperimentsEngineParity runs every adaptivity experiment once
// per execution engine: the rendered reports (BENCH rows included) must be
// byte-identical, and each policy's section switch histories must match
// exactly. The crossover cell runs a second time under the UCB selector,
// whose render and switch histories must also match the committed golden.
func TestAdaptExperimentsEngineParity(t *testing.T) {
	for _, sc := range adaptScenarios {
		kinds := []string{core.KindRoundRobin}
		if sc.sched.Name == "crossover" {
			kinds = append(kinds, core.KindUCB)
		}
		for _, kind := range kinds {
			render, switches := adaptEngineParity(t, sc.sched.Name, kind)
			if kind != core.KindUCB {
				continue
			}
			for i, sw := range switches {
				for _, s := range sw {
					render += fmt.Sprintf("section run %d: switch round %d version %d (%s) at %d\n", i, s.Round, s.Version, s.Label, s.At)
				}
			}
			matchGolden(t, adaptCrossoverUCBGolden, render, "ucb render")
		}
	}
}

// adaptEngineParity runs one adaptivity experiment under both engines with
// the given controller kind, checks renders and switch histories agree, and
// returns both.
func adaptEngineParity(t *testing.T, scenario, kind string) (string, [][]interp.SwitchStat) {
	t.Helper()
	id := "adapt-" + scenario
	e, ok := ExperimentByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	var formats []string
	var switches [][][]interp.SwitchStat
	for _, engine := range []string{interp.EngineInterp, interp.EngineVM} {
		s := NewSuite(SuiteConfig{Parallelism: 1, Engine: engine, Controller: kind})
		rep, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s/%s under %s: %v", id, kind, engine, err)
		}
		formats = append(formats, rep.Format())
		// Same suite, same options as the experiment: the scenario
		// results come from the suite's memo, so the switch histories
		// are the ones behind the rows just rendered.
		_, results, _, err := runScenario(s, scenario)
		if err != nil {
			t.Fatalf("%s/%s under %s: %v", id, kind, engine, err)
		}
		var sw [][]interp.SwitchStat
		for _, res := range results {
			for _, sec := range res.Sections {
				sw = append(sw, sec.Switches)
			}
		}
		switches = append(switches, sw)
	}
	if formats[0] != formats[1] {
		t.Errorf("%s/%s: BENCH rows differ between engines:\n--- interp ---\n%s\n--- vm ---\n%s",
			id, kind, formats[0], formats[1])
	}
	if !reflect.DeepEqual(switches[0], switches[1]) {
		t.Errorf("%s/%s: switch histories differ between engines", id, kind)
	}
	return formats[0], switches[0]
}
