// Package simsample turns a sampled simulation run (interp.Options.Sample)
// into a full-run estimate with confidence intervals, and validates the
// estimator against exhaustive ground truth.
//
// The sampled run itself already extrapolates: fast-forward gaps charge
// synthetic aggregates at trend rates, so the Result's virtual time and
// counters are point estimates of the exhaustive run's. What this package
// adds is an error model. For every detailed window w_j (beyond the first
// two of a section execution) the trend through w_{j-2}, w_{j-1} yields a
// prediction of w_j's per-iteration rates; the prediction residuals are
// exactly the errors the sampler commits when it charges a gap, measured
// on iterations where ground truth is known. Treating the mean residual as
// the systematic per-iteration error of the extrapolation, a Student-t
// interval on that mean, scaled by the number of skipped iterations,
// bounds each metric's total extrapolation error:
//
//	half(section) = S · t_{k-1,0.975} · sd(residuals) / sqrt(k)
//
// summed over sections (errors in different sections add in the worst
// case). Virtual time is the critical path, so its half-width is the busy
// half-width divided by the processor count, and every half-width is
// floored at RelFloor of the estimate (prediction residuals understate the
// error when a workload is so regular that they are near zero —
// cross-window boundary effects still perturb the charges slightly).
package simsample

import (
	"fmt"
	"math"
	"time"

	"repro/internal/interp"
	"repro/internal/obl/ir"
)

// MetricNames lists the estimated metrics in report order.
var MetricNames = []string{
	"time_ns", "busy_ns", "lock_time_ns", "wait_time_ns", "acquires", "failed_acquires",
}

// Config tunes the error model.
type Config struct {
	// Confidence is the two-sided interval confidence; only 0.95 is
	// supported (0 selects it).
	Confidence float64
	// RelFloor floors each interval half-width at this fraction of the
	// estimate (default 0.02).
	RelFloor float64
}

func (c Config) withDefaults() (Config, error) {
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Confidence != 0.95 {
		return c, fmt.Errorf("simsample: only 95%% confidence is supported (have %v)", c.Confidence)
	}
	if c.RelFloor <= 0 {
		c.RelFloor = 0.02
	}
	return c, nil
}

// MetricEstimate is one metric's point estimate and confidence interval.
type MetricEstimate struct {
	Name  string
	Value float64
	Lo    float64
	Hi    float64
}

// Estimate is a sampled run's extrapolated full-run metrics.
type Estimate struct {
	Metrics       []MetricEstimate
	DetailedIters int64
	SkippedIters  int64
	Windows       int
	Gaps          int
	Rollbacks     int
}

// Metric returns the named estimate, or nil.
func (e *Estimate) Metric(name string) *MetricEstimate {
	for i := range e.Metrics {
		if e.Metrics[i].Name == name {
			return &e.Metrics[i]
		}
	}
	return nil
}

// tQuant975 holds the 0.975 quantile of Student's t distribution by
// degrees of freedom 1..30; beyond 30 the normal quantile is used.
var tQuant975 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuant(df int) float64 {
	if df < 1 {
		// One residual: no spread information. The caller substitutes the
		// residual magnitude for sd; use the df=1 quantile conservatively.
		return tQuant975[0]
	}
	if df <= len(tQuant975) {
		return tQuant975[df-1]
	}
	return 1.960
}

// nMetrics counts the counter-level metrics (all but time_ns, whose
// interval derives from busy_ns), in interp.WindowStat.Rates order.
const nMetrics = 5

// sectionHalves computes one section's contribution to each metric's
// half-width from its windows' trend-prediction residuals.
func sectionHalves(sec *interp.SectionSampling) [nMetrics]float64 {
	var halves [nMetrics]float64
	if sec.SkippedIters == 0 {
		return halves
	}
	// Collect residuals per metric: prediction of window j from the trend
	// through windows j-2, j-1 of the same section execution.
	var res [nMetrics][]float64
	byExec := map[int][]interp.WindowStat{}
	var execs []int
	for _, w := range sec.Windows {
		if _, ok := byExec[w.Exec]; !ok {
			execs = append(execs, w.Exec)
		}
		byExec[w.Exec] = append(byExec[w.Exec], w)
	}
	for _, e := range execs {
		ws := byExec[e]
		for j := 2; j < len(ws); j++ {
			r1, r2 := ws[j-2].Rates(), ws[j-1].Rates()
			c1, c2 := ws[j-2].Center(), ws[j-1].Center()
			got := ws[j].Rates()
			x := ws[j].Center()
			for m := 0; m < nMetrics; m++ {
				pred := r2[m]
				if c2 != c1 {
					pred = r2[m] + (r2[m]-r1[m])*(x-c2)/(c2-c1)
				}
				res[m] = append(res[m], got[m]-pred)
			}
		}
	}
	s := float64(sec.SkippedIters)
	for m := 0; m < nMetrics; m++ {
		k := len(res[m])
		switch {
		case k == 0:
			// No residuals at all (a section that gapped without ever
			// validating cannot occur: every gap is followed by a window);
			// leave zero and let the relative floor cover it.
		case k == 1:
			halves[m] = s * tQuant(1) * math.Abs(res[m][0])
		default:
			var mean float64
			for _, r := range res[m] {
				mean += r
			}
			mean /= float64(k)
			var ss float64
			for _, r := range res[m] {
				d := r - mean
				ss += d * d
			}
			sd := math.Sqrt(ss / float64(k-1))
			halves[m] = s * tQuant(k-1) * sd / math.Sqrt(float64(k))
		}
	}
	return halves
}

// FromResult builds the estimate of a sampled run's full metrics. procs is
// the run's processor count (Options.Procs).
func FromResult(res *interp.Result, procs int, cfg Config) (*Estimate, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if res.Sampling == nil {
		return nil, fmt.Errorf("simsample: result has no sampling info (was the run sampled?)")
	}
	if procs < 1 {
		procs = 1
	}
	var halves [nMetrics]float64
	est := &Estimate{
		DetailedIters: res.Sampling.DetailedIters,
		SkippedIters:  res.Sampling.SkippedIters,
		Rollbacks:     res.Sampling.Rollbacks,
	}
	for _, sec := range res.Sampling.Sections {
		h := sectionHalves(sec)
		for m := 0; m < nMetrics; m++ {
			halves[m] += h[m]
		}
		est.Windows += len(sec.Windows)
		est.Gaps += sec.Gaps
	}
	values := []float64{
		float64(res.Time),
		float64(res.Counters.Busy),
		float64(res.Counters.LockTime),
		float64(res.Counters.WaitTime),
		float64(res.Counters.Acquires),
		float64(res.Counters.FailedAcquires),
	}
	// time_ns inherits the busy half-width spread over the processors (the
	// critical path absorbs 1/procs of the total busy error).
	allHalves := append([]float64{halves[0] / float64(procs)}, halves[:]...)
	for i, name := range MetricNames {
		v := values[i]
		half := allHalves[i]
		if floor := cfg.RelFloor * math.Abs(v); half < floor {
			half = floor
		}
		est.Metrics = append(est.Metrics, MetricEstimate{
			Name: name, Value: v, Lo: v - half, Hi: v + half,
		})
	}
	return est, nil
}

// GroundTruth extracts the exhaustive run's values of the estimated
// metrics, keyed by metric name.
func GroundTruth(res *interp.Result) map[string]float64 {
	return map[string]float64{
		"time_ns":         float64(res.Time),
		"busy_ns":         float64(res.Counters.Busy),
		"lock_time_ns":    float64(res.Counters.LockTime),
		"wait_time_ns":    float64(res.Counters.WaitTime),
		"acquires":        float64(res.Counters.Acquires),
		"failed_acquires": float64(res.Counters.FailedAcquires),
	}
}

// Report is the outcome of validating one sampled run against its
// exhaustive ground truth.
type Report struct {
	Estimate *Estimate
	// Ground holds the exhaustive run's metric values; Contained records,
	// per metric, whether the ground truth fell inside the interval.
	Ground       map[string]float64
	Contained    map[string]bool
	AllContained bool
	// Host wall-clock cost of the two runs: a diagnostic, not a result.
	SampledWall, ExhaustiveWall time.Duration
	// SkipRatio is the fraction of iterations fast-forwarded.
	SkipRatio float64
}

// Check fills the containment verdicts of est against ground truth.
func Check(est *Estimate, ground map[string]float64) (map[string]bool, bool) {
	contained := map[string]bool{}
	all := true
	for _, m := range est.Metrics {
		g, have := ground[m.Name]
		in := have && g >= m.Lo && g <= m.Hi
		contained[m.Name] = in
		if !in {
			all = false
		}
	}
	return contained, all
}

// Validate runs prog sampled (opts.Sample must be set) and exhaustively,
// builds the estimate, and reports per-metric containment and both
// wall-clocks. Both runs execute cold — no simulation cache is consulted —
// so the wall-clock pair is the genuine cost ratio.
func Validate(prog *ir.Program, opts interp.Options, cfg Config) (*Report, error) {
	if opts.Sample == nil {
		return nil, fmt.Errorf("simsample: Validate needs Options.Sample")
	}
	t0 := time.Now() //dfvet:allow walltime measures real sampled-run cost, a diagnostic
	sampled, err := interp.Run(prog, opts)
	if err != nil {
		return nil, fmt.Errorf("simsample: sampled run: %w", err)
	}
	sampledWall := time.Since(t0) //dfvet:allow walltime measures real sampled-run cost, a diagnostic
	est, err := FromResult(sampled, opts.Procs, cfg)
	if err != nil {
		return nil, err
	}
	exOpts := opts
	exOpts.Sample = nil
	t1 := time.Now() //dfvet:allow walltime measures real exhaustive-run cost, a diagnostic
	exact, err := interp.Run(prog, exOpts)
	if err != nil {
		return nil, fmt.Errorf("simsample: exhaustive run: %w", err)
	}
	exactWall := time.Since(t1) //dfvet:allow walltime measures real exhaustive-run cost, a diagnostic
	ground := GroundTruth(exact)
	contained, all := Check(est, ground)
	rep := &Report{
		Estimate: est, Ground: ground,
		Contained: contained, AllContained: all,
		SampledWall: sampledWall, ExhaustiveWall: exactWall,
	}
	if tot := est.DetailedIters + est.SkippedIters; tot > 0 {
		rep.SkipRatio = float64(est.SkippedIters) / float64(tot)
	}
	return rep, nil
}
