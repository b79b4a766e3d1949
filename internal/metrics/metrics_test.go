package metrics

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// exposition is a parsed scrape: the declared type of every family and
// every sample line, in order.
type exposition struct {
	types   map[string]string
	samples []sample
}

type sample struct {
	name, labels string // labels is the raw block between the braces
	value        float64
}

// parse reads the Prometheus text format strictly enough to catch a
// malformed line: every line is a # HELP, a # TYPE, or `name[{labels}] value`.
func parse(t *testing.T, text string) exposition {
	t.Helper()
	e := exposition{types: map[string]string{}}
	helped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !helped[name] {
				t.Fatalf("TYPE line without a preceding HELP: %q", line)
			}
			if _, dup := e.types[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			e.types[name] = typ
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		s := sample{name: line[:i], value: v}
		if j := strings.IndexByte(s.name, '{'); j >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			s.name, s.labels = s.name[:j], s.name[j+1:len(s.name)-1]
		}
		e.samples = append(e.samples, s)
	}
	return e
}

func (e exposition) value(t *testing.T, name, labels string) float64 {
	t.Helper()
	for _, s := range e.samples {
		if s.name == name && s.labels == labels {
			return s.value
		}
	}
	t.Fatalf("no sample %s{%s}", name, labels)
	return 0
}

func render(r *Registry) string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

func TestExpositionTypePerFamily(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	var served float64
	r.CounterFunc("served_total", "Served.", func() float64 { return served })
	r.GaugeFunc("depth", "Queue depth.", func() float64 { return 3 })
	v := r.CounterVec("errors_total", "Errors.", "kind")
	r.GaugeVecFunc("switches", "Switches.", []string{"section"}, func() []LabeledValue {
		return []LabeledValue{{Labels: []string{"sort"}, Value: 2}}
	})
	r.Histogram("latency_seconds", "Latency.", []float64{1, 2})
	r.BuildInfo()
	c.Add(2)
	served = 5
	v.With("io").Add(1)

	e := parse(t, render(r))
	want := map[string]string{
		"jobs_total": "counter", "served_total": "counter", "errors_total": "counter",
		"depth": "gauge", "switches": "gauge", "build_info": "gauge",
		"latency_seconds": "histogram",
	}
	for name, typ := range want {
		if e.types[name] != typ {
			t.Errorf("# TYPE %s = %q, want %q", name, e.types[name], typ)
		}
	}
	if len(e.types) != len(want) {
		t.Errorf("families %v, want exactly %d", e.types, len(want))
	}
	if got := e.value(t, "served_total", ""); got != 5 {
		t.Errorf("served_total = %g, want 5 (read at scrape time)", got)
	}
	if got := e.value(t, "jobs_total", ""); got != 2 {
		t.Errorf("jobs_total = %g, want 2", got)
	}
	if got := e.value(t, "errors_total", `kind="io"`); got != 1 {
		t.Errorf(`errors_total{kind="io"} = %g, want 1`, got)
	}
	// Every sample belongs to a declared family (histogram samples carry
	// the _bucket/_sum/_count suffixes).
	for _, s := range e.samples {
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(s.name, suf); ok && e.types[b] == "histogram" {
				base = b
			}
		}
		if e.types[base] == "" {
			t.Errorf("sample %s has no # TYPE line", s.name)
		}
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("odd_total", "Odd labels.", "path", "why")
	v.With(`C:\tmp`, "said \"no\"\nthen left").Add(1)
	v.With("plain", "").Add(4)
	text := render(r)
	const escaped = `odd_total{path="C:\\tmp",why="said \"no\"\nthen left"} 1`
	if !strings.Contains(text, escaped+"\n") {
		t.Errorf("escaped sample line missing; want %s in:\n%s", escaped, text)
	}
	e := parse(t, text) // a raw newline in a label value would break a line apart
	if len(e.samples) != 2 {
		t.Fatalf("%d samples, want 2:\n%s", len(e.samples), text)
	}
	if e.samples[0].value != 1 || e.samples[1].value != 4 {
		t.Errorf("series not sorted by label block: %+v", e.samples)
	}
}

func TestExpositionHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("run_seconds", "Runs.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 5, 50, 100} {
		h.Observe(v)
	}
	e := parse(t, render(r))
	wantLE := []string{`le="0.1"`, `le="1"`, `le="10"`, `le="+Inf"`}
	wantCum := []float64{2, 3, 5, 7}
	var got []sample
	for _, s := range e.samples {
		if s.name == "run_seconds_bucket" {
			got = append(got, s)
		}
	}
	if len(got) != len(wantLE) {
		t.Fatalf("%d bucket lines, want %d", len(got), len(wantLE))
	}
	for i, s := range got {
		if s.labels != wantLE[i] || s.value != wantCum[i] {
			t.Errorf("bucket %d: {%s} %g, want {%s} %g", i, s.labels, s.value, wantLE[i], wantCum[i])
		}
		if i > 0 && s.value < got[i-1].value {
			t.Errorf("bucket counts not cumulative: %g after %g", s.value, got[i-1].value)
		}
	}
	if c := e.value(t, "run_seconds_count", ""); c != got[len(got)-1].value {
		t.Errorf("_count %g differs from the +Inf bucket %g", c, got[len(got)-1].value)
	}
	if sum := e.value(t, "run_seconds_sum", ""); sum != 160.65 {
		t.Errorf("_sum = %g, want 160.65", sum)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Error("second registration of x_total did not panic")
		}
	}()
	r.CounterFunc("x_total", "X again.", func() float64 { return 0 })
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("up", "Up.", func() float64 { return 1 })
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q", ct)
	}
	if e := parse(t, rec.Body.String()); e.types["up"] != "gauge" {
		t.Errorf("scrape body: %q", rec.Body.String())
	}
}
