// Package dynfb is a reusable, real-time implementation of dynamic
// feedback (Diniz & Rinard, PLDI 1997) for Go programs.
//
// Dynamic feedback lets a computation choose, at run time, among several
// implementations ("variants") of the same parallel section. The generated
// schedule alternately performs sampling phases — each variant runs for a
// fixed target sampling interval while its overhead is measured — and
// production phases, which run the variant with the least measured
// overhead; the section periodically resamples to adapt to changes in the
// environment.
//
// A Section distributes loop iterations [lo, hi) over a pool of workers.
// Each completed iteration is a potential switch point: the worker polls
// the clock, and when the current interval has expired all workers
// rendezvous at a barrier and switch variants synchronously, so that every
// measurement reflects exactly one variant (§4.1 of the paper). Overhead is
// measured exactly as the paper specifies (§4.3): locking overhead (counted
// instrumented mutex acquisitions times the calibrated cost of an
// acquire/release pair), plus waiting overhead (time spent spinning on held
// mutexes), divided by the total execution time.
//
// Typical use:
//
//	sec, _ := dynfb.NewSection(dynfb.Config{Workers: 8},
//	    dynfb.Variant{Name: "fine", Body: fineGrained},
//	    dynfb.Variant{Name: "coarse", Body: coarseGrained},
//	)
//	sec.Run(0, len(items))      // adaptively picks the best variant
//
// Variant bodies receive a Ctx whose Lock/Unlock operate on instrumented
// spin mutexes (NewMutex); using them is what makes the overhead
// measurement meaningful. Bodies may also add explicit overhead hints with
// Ctx.AddOverhead for non-lock-based costs.
package dynfb

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynfb/store"
	"repro/internal/core"
)

// CutoffComponent re-exports the early cut-off components of §4.5.
type CutoffComponent int

// Cutoff components: a variant whose declared component measures near zero
// during its sample cannot be significantly beaten, so the sampling phase
// stops early (requires Config.EarlyCutoff).
const (
	CutoffNone    = CutoffComponent(core.CutoffNone)
	CutoffLocking = CutoffComponent(core.CutoffLocking)
	CutoffWaiting = CutoffComponent(core.CutoffWaiting)
)

// Variant is one implementation of the section body.
type Variant struct {
	// Name identifies the variant in reports.
	Name string
	// Body executes one iteration. It must be safe for concurrent
	// invocation from multiple workers.
	Body func(ctx *Ctx, iter int)
	// Cutoff optionally declares the §4.5 early cut-off component.
	Cutoff CutoffComponent
}

// Config parameterizes a Section.
type Config struct {
	// Workers is the number of worker goroutines. Default GOMAXPROCS.
	Workers int
	// TargetSampling is the target sampling interval. Default 10ms.
	TargetSampling time.Duration
	// TargetProduction is the target production interval. Default 10s.
	TargetProduction time.Duration
	// EarlyCutoff enables the §4.5 early cut-off.
	EarlyCutoff bool
	// OrderByHistory samples the previous winner first and skips the rest
	// of the sampling phase while it stays acceptable (§4.5).
	OrderByHistory bool
	// SpanExecutions lets sampling and production intervals span multiple
	// Run calls (§4.4 extension) instead of resampling at every Run.
	SpanExecutions bool
	// AutoTuneProduction retunes the production interval at each production
	// entry using the §5 analysis over the observed history (eq. 9).
	AutoTuneProduction bool
	// Controller selects the feedback controller implementation:
	// core.KindRoundRobin (the paper's controller, the default) or
	// core.KindUCB (the bandit controller, which skips sampling variants
	// whose history proves they cannot win — worthwhile once the variant
	// count grows past a handful).
	Controller string
	// LockPairCost overrides the calibrated cost of one uncontended
	// acquire/release pair, used to convert acquisition counts into
	// locking overhead time. Zero means calibrate at section creation.
	LockPairCost time.Duration
	// Name identifies the section in a policy Store. Required when Store
	// is set; unused otherwise.
	Name string
	// Store, when non-nil, persists what sampling learns: every Run that
	// entered a production phase writes a record (winner, winner overhead,
	// per-variant aggregates) keyed by Name and an environment fingerprint
	// (GOMAXPROCS, Workers, variant-set hash). Long-running callers can
	// also checkpoint mid-Run with Section.Persist.
	Store store.Store
	// WarmStart seeds the controller from a fresh matching Store record at
	// section creation — §4.5 generalized across process restarts: the
	// recorded winner is sampled first and the rest of the first sampling
	// phase is skipped while the winner stays acceptable. A record whose
	// fingerprint or variant set does not match is ignored and the section
	// cold-starts with full sampling. Requires Store (and therefore Name);
	// implies OrderByHistory.
	WarmStart bool
}

// maxWorkers bounds Config.Workers; each worker is a goroutine, and counts
// beyond this are assumed to be bugs (e.g. a byte count passed as a worker
// count) rather than intent.
const maxWorkers = 1 << 16

// Sample is one completed measurement interval.
type Sample struct {
	Kind            string // "sampling", "production" or "partial"
	Variant         int
	Name            string
	Start, End      time.Duration // offsets from section creation
	Overhead        float64
	LockingOverhead float64
	WaitingOverhead float64
}

// Stats summarizes one variant's history.
type Stats struct {
	Name         string
	TimesSampled int
	TimesChosen  int
	MeanOverhead float64
	LastOverhead float64
}

// Mutex is an instrumented spin lock. It must be created by
// Section.NewMutex and locked through Ctx.Lock so acquisitions and
// spinning are charged to the measuring worker.
type Mutex struct {
	state int32
}

// meter accumulates one worker's instrumentation for the current phase
// (§4.3). Only that worker writes it between barriers.
type meter struct {
	acquires int64
	fails    int64
	waitNs   int64
	busyNs   int64
	extraNs  int64
	_        [2]int64 // pad to reduce false sharing
}

// Ctx is the per-worker context passed to variant bodies.
type Ctx struct {
	// Worker is the worker index, in [0, Workers).
	Worker int
	m      *meter
}

// Lock acquires m, spinning if necessary and charging failed attempts and
// waiting time to the measurement (§4.3's waiting overhead).
func (c *Ctx) Lock(m *Mutex) {
	if atomic.CompareAndSwapInt32(&m.state, 0, 1) {
		c.m.acquires++
		return
	}
	start := time.Now()
	spins := 0
	for {
		if atomic.LoadInt32(&m.state) == 0 && atomic.CompareAndSwapInt32(&m.state, 0, 1) {
			break
		}
		c.m.fails++
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
	c.m.acquires++
	c.m.waitNs += time.Since(start).Nanoseconds()
}

// Unlock releases m.
func (c *Ctx) Unlock(m *Mutex) {
	atomic.StoreInt32(&m.state, 0)
}

// AddOverhead charges d of explicit overhead to the current measurement,
// for costs that are not expressed through instrumented locks (e.g. retry
// loops, redundant recomputation).
func (c *Ctx) AddOverhead(d time.Duration) {
	c.m.extraNs += d.Nanoseconds()
}

// Section is a multi-variant parallel section driven by dynamic feedback.
type Section struct {
	cfg      Config
	variants []Variant
	names    []string // resolved variant names, in declaration order
	ctl      *core.Controller
	epoch    time.Time
	pairCost time.Duration
	fp       store.Fingerprint
	warm     bool // a store record warm-started the controller

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	gen      uint64
	current  int32 // active variant index
	deadline int64 // current phase deadline, nanoseconds since epoch
	next     int64 // iteration claim counter
	hi       int64
	done     bool

	meters []meter
	snaps  []meter
}

// validate rejects nonsensical configurations eagerly, so misuse surfaces
// at section creation instead of as a hang or misbehaviour inside Run.
func (cfg Config) validate() error {
	if cfg.Workers < 0 {
		return fmt.Errorf("dynfb: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers > maxWorkers {
		return fmt.Errorf("dynfb: %d workers exceeds the maximum %d", cfg.Workers, maxWorkers)
	}
	if cfg.TargetSampling < 0 {
		return fmt.Errorf("dynfb: negative target sampling interval %v", cfg.TargetSampling)
	}
	if cfg.TargetProduction < 0 {
		return fmt.Errorf("dynfb: negative target production interval %v", cfg.TargetProduction)
	}
	if cfg.TargetSampling > 0 && cfg.TargetProduction > 0 && cfg.TargetSampling > cfg.TargetProduction {
		return fmt.Errorf("dynfb: target sampling interval %v exceeds target production interval %v",
			cfg.TargetSampling, cfg.TargetProduction)
	}
	if cfg.LockPairCost < 0 {
		return fmt.Errorf("dynfb: negative lock pair cost %v", cfg.LockPairCost)
	}
	if cfg.WarmStart && cfg.Store == nil {
		return fmt.Errorf("dynfb: WarmStart requires a Store")
	}
	if !core.ValidKind(cfg.Controller) {
		return fmt.Errorf("dynfb: unknown controller kind %q", cfg.Controller)
	}
	if cfg.Store != nil && cfg.Name == "" {
		return fmt.Errorf("dynfb: a Store requires Config.Name to key the section's records")
	}
	return nil
}

// NewSection creates a section with the given variants.
func NewSection(cfg Config, variants ...Variant) (*Section, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("dynfb: at least one variant is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.TargetSampling == 0 {
		cfg.TargetSampling = 10 * time.Millisecond
	}
	if cfg.TargetProduction == 0 {
		cfg.TargetProduction = 10 * time.Second
	}
	names := make([]string, len(variants))
	policies := make([]core.PolicyInfo, len(variants))
	seen := make(map[string]int, len(variants))
	for i, v := range variants {
		if v.Body == nil {
			return nil, fmt.Errorf("dynfb: variant %d (%s) has no body", i, v.Name)
		}
		name := v.Name
		if name == "" {
			name = fmt.Sprintf("variant%d", i)
		}
		if j, dup := seen[name]; dup {
			return nil, fmt.Errorf("dynfb: variants %d and %d share the name %q", j, i, name)
		}
		seen[name] = i
		names[i] = name
		policies[i] = core.PolicyInfo{Name: name, Cutoff: core.CutoffComponent(v.Cutoff)}
	}
	ctl, err := core.NewCtl(cfg.Controller, core.Config{
		Policies:           policies,
		TargetSampling:     core.Nanos(cfg.TargetSampling),
		TargetProduction:   core.Nanos(cfg.TargetProduction),
		EarlyCutoff:        cfg.EarlyCutoff,
		OrderByHistory:     cfg.OrderByHistory || cfg.WarmStart,
		SpanExecutions:     cfg.SpanExecutions,
		AutoTuneProduction: cfg.AutoTuneProduction,
	})
	if err != nil {
		return nil, fmt.Errorf("dynfb: %w", err)
	}
	s := &Section{
		cfg:      cfg,
		variants: variants,
		names:    names,
		ctl:      ctl,
		epoch:    time.Now(),
		pairCost: cfg.LockPairCost,
		meters:   make([]meter, cfg.Workers),
		snaps:    make([]meter, cfg.Workers),
	}
	s.fp = store.Fingerprint{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      cfg.Workers,
		VariantsHash: store.VariantsHash(names),
	}
	if cfg.WarmStart {
		s.warmStart()
	}
	s.cond = sync.NewCond(&s.mu)
	if s.pairCost <= 0 {
		s.pairCost = calibrateLockPair()
	}
	return s, nil
}

// loadRecord fetches this section's record for exactly this environment.
// Stores that implement store.EnvLoader (all the backend-based stores)
// are asked for the fingerprint-exact record; plain stores fall back to
// Load plus a fingerprint check.
func (s *Section) loadRecord() (store.Record, bool) {
	var (
		rec store.Record
		ok  bool
		err error
	)
	if el, isEnv := s.cfg.Store.(store.EnvLoader); isEnv {
		rec, ok, err = el.LoadFor(s.cfg.Name, s.fp)
	} else {
		rec, ok, err = s.cfg.Store.Load(s.cfg.Name)
	}
	if err != nil || !ok || rec.Fingerprint != s.fp {
		return store.Record{}, false
	}
	return rec, true
}

// buildSeed converts a store record into controller seed knowledge,
// rejecting records whose winner or variant set no longer matches.
func (s *Section) buildSeed(rec store.Record) (core.Seed, bool) {
	winner := -1
	for i, name := range s.names {
		if name == rec.Winner {
			winner = i
			break
		}
	}
	if winner < 0 {
		return core.Seed{}, false
	}
	seed := core.Seed{Winner: winner, WinnerOverhead: rec.WinnerOverhead}
	if len(rec.Policies) == len(s.names) {
		stats := make([]core.PolicyStats, len(rec.Policies))
		for i, p := range rec.Policies {
			if p.Name != s.names[i] {
				stats = nil
				break
			}
			stats[i] = core.PolicyStats{
				TimesSampled:  p.TimesSampled,
				TimesChosen:   p.TimesChosen,
				LastOverhead:  p.LastOverhead,
				TotalOverhead: p.MeanOverhead * float64(p.TimesSampled),
			}
		}
		seed.Stats = stats
	}
	return seed, true
}

// warmStart seeds the controller from a matching store record. Any
// mismatch — no record, a different environment fingerprint, an unknown
// winner name — silently degrades to a cold start: the store is a cache,
// and a miss just means full sampling.
func (s *Section) warmStart() {
	rec, ok := s.loadRecord()
	if !ok {
		return
	}
	seed, ok := s.buildSeed(rec)
	if !ok {
		return
	}
	if s.ctl.SeedHistory(seed) == nil {
		s.warm = true
	}
}

// Reseed re-attempts a warm start from the configured store. It is the
// live fleet warm-start path: a replica's section boots cold (no record
// had reached its store yet), a peer's winner record arrives over
// replication, and the serving layer calls Reseed so the section adopts
// the fleet's knowledge without a restart. The seed is accepted only
// while the section has not chosen a production winner of its own —
// measured local knowledge always wins over replicated knowledge — and a
// fingerprint or variant mismatch degrades to a no-op exactly like
// warm-starting at creation. It reports whether the section was seeded,
// and is safe to call concurrently with Run.
func (s *Section) Reseed() bool {
	if s.cfg.Store == nil || s.cfg.Name == "" {
		return false
	}
	rec, ok := s.loadRecord()
	if !ok {
		return false
	}
	seed, ok := s.buildSeed(rec)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.warm {
		return false
	}
	if _, won := s.ctl.LastWinner(); won {
		return false
	}
	if s.ctl.LateSeed(seed) != nil {
		return false
	}
	s.warm = true
	return true
}

// WarmStarted reports whether a matching store record seeded this section
// (at creation, or later through Reseed).
func (s *Section) WarmStarted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// calibrateLockPair times uncontended instrumented lock/unlock pairs.
func calibrateLockPair() time.Duration {
	var m Mutex
	ctx := &Ctx{m: &meter{}}
	const n = 4096
	start := time.Now()
	for i := 0; i < n; i++ {
		ctx.Lock(&m)
		ctx.Unlock(&m)
	}
	d := time.Since(start) / n
	if d <= 0 {
		d = 20 * time.Nanosecond
	}
	return d
}

// NewMutex creates an instrumented mutex.
func NewMutex() *Mutex { return &Mutex{} }

// NewMutex creates an instrumented mutex (convenience method).
func (s *Section) NewMutex() *Mutex { return NewMutex() }

// now returns the controller clock (nanoseconds since section creation).
func (s *Section) now() core.Nanos { return core.Nanos(time.Since(s.epoch)) }

// Run executes iterations [lo, hi) across the configured workers, choosing
// variants by dynamic feedback. It blocks until every iteration has
// completed. Run must not be called concurrently with itself on the same
// Section.
func (s *Section) Run(lo, hi int) {
	if hi <= lo {
		return
	}
	// The controller setup happens under s.mu so that StatsSnapshot (which
	// may run concurrently from another goroutine) always sees a coherent
	// controller.
	s.mu.Lock()
	atomic.StoreInt64(&s.next, int64(lo))
	s.hi = int64(hi)
	s.done = false
	s.arrived = 0
	s.ctl.BeginExecution(s.now())
	atomic.StoreInt32(&s.current, int32(s.ctl.CurrentPolicy()))
	atomic.StoreInt64(&s.deadline, int64(s.ctl.Deadline()))
	for i := range s.meters {
		s.meters[i] = meter{}
		s.snaps[i] = meter{}
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(w)
		}(w)
	}
	wg.Wait()
	if s.cfg.Store != nil {
		// Best-effort: the section keeps adapting even if persistence
		// fails (e.g. a read-only disk); the next Run retries.
		_ = s.Persist()
	}
}

// worker claims and executes iterations until the section completes.
func (s *Section) worker(w int) {
	ctx := &Ctx{Worker: w, m: &s.meters[w]}
	for {
		i := atomic.AddInt64(&s.next, 1) - 1
		if i >= s.hi {
			if s.rendezvous(w) {
				return
			}
			continue
		}
		variant := s.variants[atomic.LoadInt32(&s.current)]
		start := time.Now()
		variant.Body(ctx, int(i))
		ctx.m.busyNs += time.Since(start).Nanoseconds()
		// Potential switch point: poll the clock and test for interval
		// expiration (§4.1). The deadline is cached atomically so polling
		// never races with the controller transition under s.mu.
		if int64(s.now()) >= atomic.LoadInt64(&s.deadline) {
			if s.rendezvous(w) {
				return
			}
		}
	}
}

// rendezvous implements the synchronous switch barrier. The last worker to
// arrive performs the controller transition; the return value reports
// whether the section is complete.
func (s *Section) rendezvous(w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen
	s.arrived++
	if s.arrived == s.cfg.Workers {
		s.arrived = 0
		s.gen++
		now := s.now()
		if atomic.LoadInt64(&s.next) >= s.hi {
			s.ctl.EndExecution(now, s.phaseDelta())
			s.done = true
		} else {
			s.ctl.CompletePhase(now, s.phaseDelta())
			atomic.StoreInt32(&s.current, int32(s.ctl.CurrentPolicy()))
			atomic.StoreInt64(&s.deadline, int64(s.ctl.Deadline()))
		}
		s.cond.Broadcast()
		return s.done
	}
	for gen == s.gen {
		s.cond.Wait()
	}
	return s.done
}

// phaseDelta aggregates the workers' instrumentation since the last phase
// boundary and resets the snapshots (§4.3).
func (s *Section) phaseDelta() core.Measurement {
	var m core.Measurement
	for i := range s.meters {
		cur := s.meters[i]
		prev := s.snaps[i]
		acq := cur.acquires - prev.acquires
		m.Acquires += acq
		m.FailedAcquires += cur.fails - prev.fails
		m.LockTime += core.Nanos(acq*s.pairCost.Nanoseconds() + (cur.extraNs - prev.extraNs))
		m.WaitTime += core.Nanos(cur.waitNs - prev.waitNs)
		m.ExecTime += core.Nanos(cur.busyNs - prev.busyNs)
		s.snaps[i] = cur
	}
	return m
}

// Current returns the index of the variant the section would run now.
func (s *Section) Current() int { return int(atomic.LoadInt32(&s.current)) }

// BestKnown returns the variant the controller currently believes best.
func (s *Section) BestKnown() int { return s.ctl.BestKnownPolicy() }

// LastChosen returns the variant most recently selected for a production
// phase, and whether any production phase has run yet. Unlike BestKnown it
// is not perturbed by a sampling round in progress.
func (s *Section) LastChosen() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl.LastWinner()
}

// RecommendedProduction derives a production interval from the section's
// observed history using the paper's §5 analysis: the overhead drift rate
// is estimated from the samples, and eq. 9 gives the interval that
// minimizes the worst-case work deficit. The second result is false while
// the history is too thin.
func (s *Section) RecommendedProduction() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.ctl.RecommendProduction()
	return time.Duration(n), ok
}

// Samples returns the measurement history.
func (s *Section) Samples() []Sample {
	var out []Sample
	for _, c := range s.ctl.Samples() {
		out = append(out, Sample{
			Kind:            kindName(c.Kind),
			Variant:         c.Policy,
			Name:            s.ctl.PolicyName(c.Policy),
			Start:           time.Duration(c.Start),
			End:             time.Duration(c.End),
			Overhead:        c.Overhead,
			LockingOverhead: c.Meas.LockingOverhead(),
			WaitingOverhead: c.Meas.WaitingOverhead(),
		})
	}
	return out
}

func kindName(k core.SampleKind) string { return k.String() }

// Snapshot is a coherent view of a section's state and per-variant
// history, safe to take while Run executes: StatsSnapshot synchronizes
// with the switch barrier instead of stopping the section.
type Snapshot struct {
	// Name is Config.Name ("" when the section is unnamed).
	Name string
	// Phase is "idle", "sampling" or "production".
	Phase string
	// Rounds is the number of completed sampling rounds.
	Rounds int
	// Current is the name of the variant the section would run now.
	Current string
	// Winner is the variant most recently chosen for production; "" until
	// a production phase has been entered.
	Winner string
	// WinnerOverhead is the overhead Winner measured when chosen.
	WinnerOverhead float64
	// WarmStarted reports whether a store record seeded the section.
	WarmStarted bool
	// Switches counts adaptation events: production entries that selected
	// a different variant than the previous production phase (the first
	// production entry counts as one).
	Switches int
	// Stats are the per-variant aggregates, in declaration order.
	Stats []Stats
}

// StatsSnapshot captures the section's state without stopping it. It may
// be called concurrently with Run from any goroutine (it briefly contends
// with the switch barrier for the section lock); long-running servers use
// it to report live per-variant overheads and to build store records.
func (s *Section) StatsSnapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Section) snapshotLocked() Snapshot {
	snap := Snapshot{
		Name:        s.cfg.Name,
		Phase:       s.ctl.Phase().String(),
		Rounds:      s.ctl.Rounds(),
		Current:     s.names[s.ctl.CurrentPolicy()],
		WarmStarted: s.warm,
	}
	if w, ok := s.ctl.LastWinner(); ok {
		snap.Winner = s.names[w]
		snap.WinnerOverhead = s.ctl.LastWinnerOverhead()
	}
	switches := s.ctl.Switches()
	for i, sw := range switches {
		if i == 0 || sw.Policy != switches[i-1].Policy {
			snap.Switches++
		}
	}
	cs := s.ctl.Stats()
	snap.Stats = make([]Stats, len(cs))
	for i, c := range cs {
		snap.Stats[i] = Stats{
			Name:         s.names[i],
			TimesSampled: c.TimesSampled,
			TimesChosen:  c.TimesChosen,
			MeanOverhead: c.MeanOverhead(),
			LastOverhead: c.LastOverhead,
		}
	}
	return snap
}

// Persist writes the section's current record to the configured store. It
// is called automatically at the end of every Run; long-running callers
// (servers with very long Runs) may also call it concurrently with Run to
// checkpoint mid-flight. It is a no-op until a production phase has been
// entered — a record without a winner would carry nothing to warm-start
// from — and when no store is configured.
func (s *Section) Persist() error {
	if s.cfg.Store == nil {
		return nil
	}
	s.mu.Lock()
	winner, ok := s.ctl.LastWinner()
	if !ok {
		s.mu.Unlock()
		return nil
	}
	rec := store.Record{
		Section:        s.cfg.Name,
		Fingerprint:    s.fp,
		Winner:         s.names[winner],
		WinnerOverhead: s.ctl.LastWinnerOverhead(),
		Rounds:         s.ctl.Rounds(),
		UpdatedUnix:    time.Now().Unix(),
	}
	for i, c := range s.ctl.Stats() {
		rec.Policies = append(rec.Policies, store.PolicyRecord{
			Name:         s.names[i],
			TimesSampled: c.TimesSampled,
			TimesChosen:  c.TimesChosen,
			MeanOverhead: c.MeanOverhead(),
			LastOverhead: c.LastOverhead,
		})
	}
	s.mu.Unlock()
	// The store write happens outside the section lock so a slow disk
	// never stalls the workers' switch barrier.
	return s.cfg.Store.Save(rec)
}

// VariantStats returns per-variant aggregates.
func (s *Section) VariantStats() []Stats {
	cs := s.ctl.Stats()
	out := make([]Stats, len(cs))
	for i, c := range cs {
		out[i] = Stats{
			Name:         s.ctl.PolicyName(i),
			TimesSampled: c.TimesSampled,
			TimesChosen:  c.TimesChosen,
			MeanOverhead: c.MeanOverhead(),
			LastOverhead: c.LastOverhead,
		}
	}
	return out
}
