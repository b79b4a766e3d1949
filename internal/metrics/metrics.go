// Package metrics is a minimal, dependency-free metrics registry with a
// Prometheus text-format (exposition format 0.0.4) scrape handler.
//
// It supports exactly what the serving tier needs: counters (optionally
// labeled), counters and gauges computed at scrape time, and cumulative
// histograms — enough for requests, run latencies, section switches,
// store sync lag, and warm-start hits, without pulling a client library
// into the build.
// Metric families render sorted by name, and series within a family
// sorted by label value, so scrapes are deterministic and diffable.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/buildinfo"
)

// Registry holds a set of metric families.
type Registry struct {
	mu       sync.Mutex
	families map[string]family
}

// family is one named metric with its type and collection function.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	collect func() []series
}

// series is one rendered sample line (or, for histograms, group).
type series struct {
	labels string // rendered label block, "" or `{k="v",...}`
	value  float64
	hist   *histSnapshot
}

type histSnapshot struct {
	buckets []float64 // upper bounds, ascending; +Inf implied
	counts  []uint64  // cumulative per bucket
	count   uint64
	sum     float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]family{}}
}

func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("metrics: duplicate metric " + f.name)
	}
	r.families[f.name] = f
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(family{name: name, help: help, typ: "counter", collect: func() []series {
		return []series{{value: c.Value()}}
	}})
	return c
}

// CounterVec is a counter family with one fixed label set.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	series map[string]*Counter
}

// With returns the counter for the given label values (created on first
// use). The number of values must match the label names.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := renderLabels(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[key]
	if !ok {
		c = &Counter{}
		v.series[key] = c
	}
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, series: map[string]*Counter{}}
	r.register(family{name: name, help: help, typ: "counter", collect: func() []series {
		v.mu.Lock()
		defer v.mu.Unlock()
		out := make([]series, 0, len(v.series))
		//dfvet:allow detorder WriteTo sorts every family's collected series by label before rendering
		for key, c := range v.series {
			out = append(out, series{labels: key, value: c.Value()})
		}
		return out
	}})
	return v
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, "gauge", fn)
}

// CounterFunc registers a counter whose value is read at scrape time from
// a count the caller already maintains; fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, "counter", fn)
}

func (r *Registry) funcFamily(name, help, typ string, fn func() float64) {
	r.register(family{name: name, help: help, typ: typ, collect: func() []series {
		return []series{{value: fn()}}
	}})
}

// LabeledValue is one (labels, value) sample emitted by GaugeVecFunc.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// GaugeVecFunc registers a labeled gauge family collected at scrape time:
// fn returns one sample per label combination.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func() []LabeledValue) {
	r.register(family{name: name, help: help, typ: "gauge", collect: func() []series {
		vals := fn()
		out := make([]series, 0, len(vals))
		for _, lv := range vals {
			out = append(out, series{labels: renderLabels(labels, lv.Labels), value: lv.Value})
		}
		return out
	}})
}

// BuildInfo registers the conventional build-info gauge: constant 1 with
// the version as a label, so dashboards can tell fleet members apart.
func (r *Registry) BuildInfo() {
	version := buildinfo.Version()
	r.register(family{name: "build_info", help: "Build information.", typ: "gauge", collect: func() []series {
		return []series{{labels: renderLabels([]string{"version"}, []string{version}), value: 1}}
	}})
}

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) snapshot() *histSnapshot {
	snap := &histSnapshot{buckets: h.bounds, counts: make([]uint64, len(h.bounds))}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		snap.counts[i] = cum
	}
	snap.count = h.count.Load()
	snap.sum = math.Float64frombits(h.sumBits.Load())
	return snap
}

// DurationBuckets are the default latency bounds, in seconds.
var DurationBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram registers and returns a histogram with the given ascending
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending: " + name)
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	r.register(family{name: name, help: help, typ: "histogram", collect: func() []series {
		return []series{{hist: h.snapshot()}}
	}})
	return h
}

// renderLabels renders a deterministic {k="v",...} block.
func renderLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteTo renders the registry in the Prometheus text exposition format.
func (r *Registry) WriteTo(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]family, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		ss := f.collect()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			if s.hist != nil {
				for i, b := range s.hist.buckets {
					fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", f.name, formatFloat(b), s.hist.counts[i])
				}
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", f.name, s.hist.count)
				fmt.Fprintf(w, "%s_sum %s\n", f.name, formatFloat(s.hist.sum))
				fmt.Fprintf(w, "%s_count %d\n", f.name, s.hist.count)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.value))
		}
	}
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// Handler returns the scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteTo(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String()))
	})
}
