package bench

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/simmach"
)

func TestReportFormatTable(t *testing.T) {
	r := &Report{ID: "x", Title: "A Table"}
	r.Header = []string{"Name", "Value"}
	r.Rows = append(r.Rows, []string{"longer-name", "1"}, []string{"b", "22"})
	r.Notes = append(r.Notes, "a note")
	r.check("good", true, "fine")
	r.check("bad", false, "broken: %d", 7)
	text := r.Format()
	for _, want := range []string{
		"== x: A Table ==",
		"Name", "Value",
		"longer-name", "22",
		"note: a note",
		"check [PASS] good: fine",
		"check [FAIL] bad: broken: 7",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}
	if got := r.Failed(); len(got) != 1 || !strings.Contains(got[0], "bad") {
		t.Errorf("Failed = %v", got)
	}
}

func TestReportFormatSeries(t *testing.T) {
	r := &Report{ID: "f", Title: "A Figure", XLabel: "x", YLabel: "y"}
	r.Series = append(r.Series, Series{Name: "s", X: []float64{1, 2}, Y: []float64{0.5, 0.25}})
	text := r.Format()
	if !strings.Contains(text, `series "s"`) || !strings.Contains(text, "0.250000") {
		t.Errorf("series formatting wrong:\n%s", text)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	// The golden, the root benchmarks and the dfperf suite workload
	// enumerate Experiments: a tier must not join it.
	if len(exps) != 33 {
		t.Fatalf("experiments = %d, want 33", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range append(exps, Tiers()...) {
		id := e.ID
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
		e, ok := ExperimentByID(id)
		if !ok || e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	for _, required := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12", "table13", "table14",
		"figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
		"eq9", "string",
	} {
		if !seen[required] {
			t.Errorf("missing required experiment %q", required)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown experiment found")
	}
}

func TestSuiteConfigDefaults(t *testing.T) {
	s := NewSuite(SuiteConfig{})
	if got := s.Config().Procs; len(got) != 7 || got[0] != 1 || got[6] != 16 {
		t.Errorf("default procs = %v", got)
	}
}

func TestSuiteParamsQuickShrinks(t *testing.T) {
	full := NewSuite(SuiteConfig{})
	quick := NewSuite(SuiteConfig{Quick: true})
	f := full.Params("barneshut")
	q := quick.Params("barneshut")
	if q["nbodies"] >= f["nbodies"] {
		t.Errorf("quick nbodies %d not smaller than full %d", q["nbodies"], f["nbodies"])
	}
	if q["listlen"] != f["listlen"] {
		t.Errorf("quick must preserve per-iteration structure: listlen %d vs %d", q["listlen"], f["listlen"])
	}
}

func TestMeanSampleInterval(t *testing.T) {
	sec := &interp.SectionStats{
		Samples: []interp.SampleStat{
			{Kind: "sampling", Label: "a", Start: 0, End: 10},
			{Kind: "sampling", Label: "a", Start: 10, End: 30},
			{Kind: "production", Label: "a", Start: 30, End: 100},
			{Kind: "sampling", Label: "b", Start: 100, End: 104},
		},
	}
	means := meanSampleInterval(sec)
	if means["a"] != simmach.Time(15) {
		t.Errorf("mean a = %v, want 15", means["a"])
	}
	if means["b"] != simmach.Time(4) {
		t.Errorf("mean b = %v, want 4", means["b"])
	}
	if _, ok := means["production"]; ok {
		t.Error("production samples counted")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := sortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("sortedKeys = %v", got)
	}
}

func TestTimeFormatters(t *testing.T) {
	if got := fsec(simmach.Time(1500 * simmach.Millisecond)); got != "1.500" {
		t.Errorf("fsec = %q", got)
	}
	if got := fms(2500 * simmach.Microsecond); got != "2.50" {
		t.Errorf("fms = %q", got)
	}
}
