package interp

import (
	"math"

	"repro/internal/simmach"
)

// Sampled simulation (Options.Sample): instead of executing every iteration
// of a long parallel section in detail, the runtime alternates detailed
// windows with fast-forward gaps. During a window every instruction runs on
// the simulated machine as usual and the per-iteration resource rates
// (busy, lock hold, lock wait, acquires, failed acquires) are measured;
// during a gap the remaining iterations of the gap are claimed in batches
// and charged synthetically via Proc.SkipCharge at rates extrapolated
// linearly from the last two windows. A checkpoint (runtime snapshot) is
// taken at each gap entry; the window that follows the gap validates the
// extrapolation, and if the observed rates deviate beyond phaseTolerance —
// a phase change happened inside the gap — the run rolls back to the gap
// entry and executes the gap region in detail instead. Each gap rolls back
// at most once (the rolled-back region is forced detailed), so sampling
// always terminates.
//
// All sampler decisions depend only on iteration indices and machine
// counters, so a sampled run is as deterministic as an exhaustive one.
// Sampling runs under the VM engine only (snapshot.go).

// SampleSpec configures sampled simulation. The zero value of any field
// selects its default.
type SampleSpec struct {
	// WindowIters is the length of a detailed measurement window, in
	// iterations (default 256).
	WindowIters int64 `json:"window_iters"`
	// GapIters is the maximum length of a fast-forward gap (default 2048).
	// Gaps are shortened so that at least one full window of iterations
	// remains after them.
	GapIters int64 `json:"gap_iters"`
	// MinSectionIters is the minimum section trip count for sampling to
	// engage at all; shorter sections run exhaustively (default
	// WindowIters*(minWindows+2) + GapIters).
	MinSectionIters int64 `json:"min_section_iters"`
}

const (
	// minWindows is the number of detailed windows required before the
	// first gap: the extrapolation is a linear trend through the last two.
	minWindows = 2
	// phaseTolerance is the relative deviation of observed vs predicted
	// per-iteration busy or wait rates beyond which the post-gap validation
	// window triggers a rollback.
	phaseTolerance = 0.35
)

// withDefaults is the canonical consumer of a sampling spec: every
// SampleSpec field is defaulted and validated here before the sampler sees
// it. Sampled runs are never cached (CacheKey refuses them), so this —
// not a cache-key encoder — is where a new field must be wired in, and
// the fingerprint analyzer holds the struct to it.
//
//dfvet:fingerprint SampleSpec
func (s *SampleSpec) withDefaults() SampleSpec {
	out := *s
	if out.WindowIters <= 0 {
		out.WindowIters = 256
	}
	if out.GapIters <= 0 {
		out.GapIters = 2048
	}
	if out.MinSectionIters <= 0 {
		out.MinSectionIters = out.WindowIters*(minWindows+2) + out.GapIters
	}
	return out
}

// WindowStat is one detailed window's aggregate measurements, summed over
// processors. Start is relative to the section's lower bound; Exec numbers
// the section execution the window belongs to (sections inside outer
// serial loops execute many times).
type WindowStat struct {
	Exec           int          `json:"exec"`
	Start          int64        `json:"start"`
	Iters          int64        `json:"iters"`
	Busy           simmach.Time `json:"busy"`
	LockTime       simmach.Time `json:"lock_time"`
	WaitTime       simmach.Time `json:"wait_time"`
	Acquires       int64        `json:"acquires"`
	FailedAcquires int64        `json:"failed_acquires"`
}

// Rates returns the per-iteration rates of the window's five metrics, in
// sampler metric order (busy, lock, wait, acquires, failed).
func (w WindowStat) Rates() [5]float64 {
	n := float64(w.Iters)
	return [5]float64{
		float64(w.Busy) / n,
		float64(w.LockTime) / n,
		float64(w.WaitTime) / n,
		float64(w.Acquires) / n,
		float64(w.FailedAcquires) / n,
	}
}

// Center returns the window's middle iteration, relative like Start.
func (w WindowStat) Center() float64 {
	return float64(w.Start) + float64(w.Iters-1)/2
}

// SectionSampling aggregates sampling activity over all executions of one
// parallel section.
type SectionSampling struct {
	Name string `json:"name"`
	// Windows holds every detailed window, in measurement order.
	Windows []WindowStat `json:"windows"`
	// DetailedIters and SkippedIters partition the section's iterations.
	DetailedIters int64 `json:"detailed_iters"`
	SkippedIters  int64 `json:"skipped_iters"`
	// Gaps counts fast-forward gaps entered; Rollbacks counts the subset
	// whose validation failed and was re-executed in detail.
	Gaps      int `json:"gaps"`
	Rollbacks int `json:"rollbacks"`
	// Execs counts section executions.
	Execs int `json:"execs"`
}

// SamplingInfo summarizes a sampled run; Result.Sampling is nil for
// exhaustive runs.
type SamplingInfo struct {
	Spec          SampleSpec         `json:"spec"`
	Sections      []*SectionSampling `json:"sections"`
	DetailedIters int64              `json:"detailed_iters"`
	SkippedIters  int64              `json:"skipped_iters"`
	Rollbacks     int                `json:"rollbacks"`
}

// sampler drives sampling for one section execution. It is owned by the
// sectionRun and invoked from the worker's claim point.
type sampler struct {
	rt   *runtime
	sr   *sectionRun
	spec *SampleSpec
	agg  *SectionSampling
	exec int

	// Current detailed window.
	winOpen     bool
	winStart    int64 // iteration index relative to sr.lo
	winStartTot simmach.Counters
	wins        int // windows closed this execution

	// Current fast-forward gap.
	inGap           bool
	gapStart        int64
	gapLen, gapLeft int64
	batch           int64

	// Trend state: the last two closed windows (base2 newest).
	base1, base2 WindowStat
	haveTrend    bool

	// carry holds sub-unit charge remainders per metric so batch rounding
	// is deterministic and drift-free across a gap.
	carry [5]float64

	// pendingValidate marks the window following a gap; forcedUntil
	// disables gap entry below that relative index after a rollback.
	pendingValidate bool
	forcedUntil     int64

	// snap is the checkpoint taken at the current gap's entry, retained
	// until its validation window passes.
	snap *runSnapshot

	skippedThisExec int64
}

func newSampler(rt *runtime, sr *sectionRun) *sampler {
	agg := rt.sampAgg[sr.sec.ID]
	if agg == nil {
		agg = &SectionSampling{Name: sr.sec.Name}
		rt.sampAgg[sr.sec.ID] = agg
	}
	sp := &sampler{rt: rt, sr: sr, spec: rt.sampSpec, agg: agg, exec: agg.Execs}
	agg.Execs++
	return sp
}

// atClaim runs at the claim point of every dispatch inside a sampled
// section, before anything is charged. handled=true means the sampler
// consumed the dispatch (batch-claimed a gap stretch, or rolled back) and
// the worker must return st from its Step immediately.
func (sp *sampler) atClaim(p *simmach.Proc) (st simmach.Status, handled bool) {
	sr := sp.sr
	if sp.inGap {
		return sp.gapClaim(p)
	}
	if sr.next >= sr.hi {
		// Section exhausted: close the last (possibly partial) window.
		// Validation can still trigger here, so a claim point is required.
		if sp.winOpen && sp.closeWindow() {
			return simmach.Restored, true
		}
		return 0, false
	}
	rel := sr.next - sr.lo
	if sp.winOpen && rel-sp.winStart >= sp.spec.WindowIters {
		if sp.closeWindow() {
			return simmach.Restored, true
		}
		if sp.canGap(rel) {
			sp.beginGap(rel)
			return sp.gapClaim(p)
		}
	}
	if !sp.winOpen {
		sp.openWindow(rel)
	}
	return 0, false
}

func (sp *sampler) openWindow(rel int64) {
	sp.winOpen = true
	sp.winStart = rel
	sp.winStartTot = sp.rt.m.TotalCounters()
}

// closeWindow finalizes the open window. It reports true when the window
// was a failed validation window and the run has been rolled back to the
// preceding gap's entry.
func (sp *sampler) closeWindow() bool {
	sr := sp.sr
	rel := sr.next - sr.lo
	iters := rel - sp.winStart
	sp.winOpen = false
	if iters <= 0 {
		return false
	}
	delta := sp.rt.m.TotalCounters().Sub(sp.winStartTot)
	w := WindowStat{
		Exec: sp.exec, Start: sp.winStart, Iters: iters,
		Busy: delta.Busy, LockTime: delta.LockTime, WaitTime: delta.WaitTime,
		Acquires: delta.Acquires, FailedAcquires: delta.FailedAcquires,
	}
	if sp.pendingValidate {
		sp.pendingValidate = false
		// A truncated validation window (section ended) is too noisy to
		// judge; accept the gap rather than roll back on half a sample.
		if iters >= sp.spec.WindowIters/2 && sp.deviates(w) {
			sp.rollback()
			return true
		}
		sp.snap = nil
	}
	sp.agg.Windows = append(sp.agg.Windows, w)
	sp.wins++
	sp.base1, sp.base2 = sp.base2, w
	sp.haveTrend = sp.wins >= minWindows
	return false
}

// canGap reports whether a gap may start at relative index rel.
func (sp *sampler) canGap(rel int64) bool {
	if sp.pendingValidate || !sp.haveTrend || rel < sp.forcedUntil {
		return false
	}
	return sp.gapLenAt(rel) >= sp.spec.WindowIters
}

// gapLenAt shortens GapIters so a full validation window fits after the gap.
func (sp *sampler) gapLenAt(rel int64) int64 {
	total := sp.sr.hi - sp.sr.lo
	n := total - rel - sp.spec.WindowIters
	if n > sp.spec.GapIters {
		n = sp.spec.GapIters
	}
	return n
}

func (sp *sampler) beginGap(rel int64) {
	// Checkpoint first: the snapshot must capture the pre-gap sampler
	// state so a rollback rewinds the sampler along with everything else.
	sp.snap = sp.rt.snapshot()
	sp.inGap = true
	sp.gapStart = rel
	sp.gapLen = sp.gapLenAt(rel)
	sp.gapLeft = sp.gapLen
	sp.agg.Gaps++
	sp.batch = sp.gapLen / int64(4*sp.rt.opts.Procs)
	if sp.batch < 1 {
		sp.batch = 1
	}
	sp.carry = [5]float64{}
}

// gapClaim consumes one batch of the current gap: the claiming processor
// takes the next batch of iterations and is charged their extrapolated
// aggregate via SkipCharge. Batches are sized so each processor takes
// several turns per gap, keeping the processors' clocks interleaved the
// way detailed execution would.
func (sp *sampler) gapClaim(p *simmach.Proc) (simmach.Status, bool) {
	sr := sp.sr
	b := sp.batch
	if b > sp.gapLeft {
		b = sp.gapLeft
	}
	rel := sr.next - sr.lo
	rates := sp.trendAt(float64(rel) + float64(b-1)/2)
	var vals [5]int64
	for i, r := range rates {
		if r < 0 {
			r = 0
		}
		exact := r*float64(b) + sp.carry[i]
		v := math.Floor(exact)
		sp.carry[i] = exact - v
		vals[i] = int64(v)
	}
	p.SkipCharge(simmach.Time(vals[0]), simmach.Time(vals[1]), simmach.Time(vals[2]), vals[3], vals[4])
	sr.next += b
	sr.iterations += b
	sp.agg.SkippedIters += b
	sp.skippedThisExec += b
	sp.gapLeft -= b
	if sp.gapLeft <= 0 {
		sp.inGap = false
		sp.pendingValidate = true
	}
	return simmach.Ready, true
}

// trendAt linearly extrapolates per-iteration rates to relative index x
// from the centers of the last two windows.
func (sp *sampler) trendAt(x float64) [5]float64 {
	r1, r2 := sp.base1.Rates(), sp.base2.Rates()
	c1, c2 := sp.base1.Center(), sp.base2.Center()
	if c2 == c1 {
		return r2
	}
	k := (x - c2) / (c2 - c1)
	var out [5]float64
	for i := range out {
		out[i] = r2[i] + (r2[i]-r1[i])*k
	}
	return out
}

// deviates reports whether the validation window's observed busy or wait
// rates differ from the trend prediction by more than phaseTolerance,
// normalized by the predicted busy rate.
func (sp *sampler) deviates(w WindowStat) bool {
	pred := sp.trendAt(w.Center())
	got := w.Rates()
	scale := pred[0]
	if scale < 1 {
		scale = 1
	}
	dev := math.Abs(got[0]-pred[0]) / scale
	if d := math.Abs(got[2]-pred[2]) / scale; d > dev {
		dev = d
	}
	return dev > phaseTolerance
}

// rollback rewinds the run to the current gap's entry checkpoint and
// forces the rolled-back region to execute in detail. forcedUntil is set
// after the restore, which rewinds the sampler whole; the restore keeps
// the aggregate's Rollbacks, so the count survives.
func (sp *sampler) rollback() {
	gapEnd := sp.gapStart + sp.gapLen
	sp.rt.restoreSnapshot(sp.snap)
	sp.snap = nil
	sp.forcedUntil = gapEnd
	sp.agg.Rollbacks++
}

// finishExec folds this execution's iteration split into the aggregate; it
// runs from the section's final barrier completion.
func (sp *sampler) finishExec() {
	sp.agg.DetailedIters += sp.sr.iterations - sp.skippedThisExec
}
