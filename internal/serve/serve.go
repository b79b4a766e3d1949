// Package serve implements dfserved: a long-running HTTP server that
// keeps named adaptive sections hot, shares what sampling has learned
// through a persistent policy store, and exposes live per-variant
// overhead reports.
//
// The server registers the bundled native workloads (see workloads.go) as
// dynfb Sections with SpanExecutions enabled, so sampling and production
// intervals span requests (§4.4) and the controller keeps adapting under
// sustained traffic. When a store is configured, every section persists
// its winner record after each run and warm-starts from a matching record
// at boot (§4.5 generalized across restarts), so a restarted server goes
// back to serving its best-known policies after a single sampling
// interval per section.
//
// Endpoints:
//
//	GET  /healthz   liveness, uptime, request counters
//	GET  /sections  the registered adaptive sections and their variants
//	GET  /stats     live per-variant overhead/winner report per section,
//	                plus the most recent OBL run's adaptation events
//	POST /run       execute a workload: a native section ({"section":...})
//	                or a compiled OBL program on the simulated machine
//	                ({"app":...}), optionally under a perturbation
//	                schedule ({"perturb":"crossover"} names a built-in
//	                scenario, {"schedule":{...}} inlines one); the
//	                response reports each section's adaptation events
//
// All runs draw from a shared worker pool: at most Config.MaxConcurrent
// workload executions are in flight at once, each using Config.Workers
// goroutines, so a burst of submissions queues instead of oversubscribing
// the host.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynfb"
	"repro/dynfb/store"
	"repro/internal/apps"
	"repro/internal/buildinfo"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the worker count of each native section. Default
	// GOMAXPROCS.
	Workers int
	// TargetSampling is the sections' sampling interval. Default 5ms.
	TargetSampling time.Duration
	// TargetProduction is the sections' production interval. Default 2s.
	TargetProduction time.Duration
	// Backend, when non-nil, persists each section's policy record through
	// a tenant-scoped view of the backend (see Tenant) and warm-starts
	// matching sections at boot (unless ColdStart); the server also
	// subscribes to backend updates, so a winner record replicated from a
	// fleet peer warm-starts the matching cold section live, without a
	// restart. The server does not close the backend; the caller owns it.
	Backend store.Backend
	// Tenant namespaces this server's records in a shared Backend. Fleet
	// members serving different applications set different tenants and
	// never see one another's policies. Default "" (the shared namespace).
	Tenant string
	// ColdStart disables warm-starting from the Backend.
	ColdStart bool
	// Logger receives structured logs. Default slog.Default().
	Logger *slog.Logger
	// MaxConcurrent bounds concurrently executing workload runs across the
	// shared pool. Default runtime.GOMAXPROCS(0), so the pool scales with
	// the host: every simulated run is independent and deterministic, and
	// a run's result does not depend on what executes alongside it.
	MaxConcurrent int
	// Cache, when non-nil, serves repeated OBL simulation requests from
	// the content-addressed simulation cache instead of re-simulating;
	// /run responses carry a "cached" flag and /stats reports the traffic.
	Cache *simcache.Cache
	// Controller selects the feedback controller implementation for native
	// sections and OBL dynamic runs (core.KindRoundRobin, the default, or
	// core.KindUCB).
	Controller string
}

func (c Config) withDefaults() Config {
	if c.TargetSampling <= 0 {
		c.TargetSampling = 5 * time.Millisecond
	}
	if c.TargetProduction <= 0 {
		c.TargetProduction = 2 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// section is one registered adaptive section.
type section struct {
	w   *workload
	sec *dynfb.Section

	mu    sync.Mutex // serializes Run and parameter changes
	runs  atomic.Int64
	iters atomic.Int64
}

// Server serves named adaptive sections and OBL workloads over HTTP.
type Server struct {
	cfg   Config
	start time.Time
	mux   *http.ServeMux
	sem   chan struct{} // shared worker-pool slots

	secs   []*section
	byName map[string]*section

	appMu    sync.Mutex
	compiled map[string]*oblc.Compiled

	// adaptMu guards lastAdapt, the most recent OBL run that had adaptation
	// events; /stats reports them.
	adaptMu   sync.Mutex
	lastAdapt adaptedRun

	requests atomic.Int64
	runsOK   atomic.Int64
	runsErr  atomic.Int64

	// warmHits counts warm starts: sections seeded from the store at boot
	// plus sections reseeded live from a replicated fleet record. A fleet
	// replica with warmHits > 0 demonstrably skipped sampling work thanks
	// to a peer's experience.
	warmHits atomic.Int64

	reg         *metrics.Registry
	runSeconds  *metrics.Histogram
	cancelWatch func()
}

// adaptEventJSON is one controller adaptation event: after which sampling
// round the controller moved production onto which policy, and when
// (virtual time) the switch took effect.
type adaptEventJSON struct {
	Round  int    `json:"round"`
	Policy string `json:"policy"`
	AtNS   int64  `json:"at_ns"`
}

// adaptRecordJSON is the most recent OBL run's adaptation report.
type adaptRecordJSON struct {
	App      string                      `json:"app"`
	Policy   string                      `json:"policy"`
	Procs    int                         `json:"procs"`
	Perturb  string                      `json:"perturb,omitempty"`
	Sections map[string][]adaptEventJSON `json:"sections"`
}

// adaptedRun is what /stats needs of an OBL run to report its adaptation
// events. The result is shared with the cache and is only read.
type adaptedRun struct {
	reply runReply
	res   *interp.Result
}

// isAdaptEvent reports whether production entry i of a section is an
// adaptation event: the initial production selection, or an entry that
// changed version.
func isAdaptEvent(switches []interp.SwitchStat, i int) bool {
	return i == 0 || switches[i].Version != switches[i-1].Version
}

// record renders the run's adaptation report.
func (a adaptedRun) record() *adaptRecordJSON {
	rec := &adaptRecordJSON{App: a.reply.app, Policy: a.reply.policy, Procs: a.reply.procs,
		Perturb: a.reply.perturb, Sections: map[string][]adaptEventJSON{}}
	for _, sec := range a.res.Sections {
		for i, sw := range sec.Switches {
			if isAdaptEvent(sec.Switches, i) {
				rec.Sections[sec.Name] = append(rec.Sections[sec.Name],
					adaptEventJSON{Round: sw.Round, Policy: sw.Label, AtNS: int64(sw.At)})
			}
		}
	}
	return rec
}

// New builds a server with every bundled native workload registered.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(), //dfvet:allow walltime server start stamp for live uptime reporting
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		byName:   map[string]*section{},
		compiled: map[string]*oblc.Compiled{},
	}
	var view *store.TenantStore // stays nil without a backend: sections then keep nothing
	if cfg.Backend != nil {
		view = store.NewTenantStore(cfg.Backend, cfg.Tenant)
	}
	for _, w := range nativeWorkloads() {
		sec, err := dynfb.NewSection(dynfb.Config{
			Name:             w.name,
			Workers:          cfg.Workers,
			TargetSampling:   cfg.TargetSampling,
			TargetProduction: cfg.TargetProduction,
			SpanExecutions:   true,
			Controller:       cfg.Controller,
			Store:            view,
			WarmStart:        view != nil && !cfg.ColdStart,
		}, w.variants...)
		if err != nil {
			return nil, fmt.Errorf("serve: section %s: %w", w.name, err)
		}
		if sec.WarmStarted() {
			s.warmHits.Add(1)
			cfg.Logger.Info("section warm-started from store", "section", w.name, "tenant", cfg.Tenant)
		}
		reg := &section{w: w, sec: sec}
		s.secs = append(s.secs, reg)
		s.byName[w.name] = reg
	}
	if cfg.Backend != nil && !cfg.ColdStart {
		// Live fleet warm start: when a record for one of our cold
		// sections lands in the backend (replicated from a peer or written
		// by a co-tenant process), reseed that section so it adopts the
		// fleet's winner without restarting.
		s.cancelWatch = cfg.Backend.Watch(func(rec store.VersionedRecord) {
			if rec.Key.Tenant != cfg.Tenant {
				return
			}
			reg, ok := s.byName[rec.Key.Section]
			if !ok || reg.sec.WarmStarted() {
				return
			}
			if reg.sec.Reseed() {
				s.warmHits.Add(1)
				cfg.Logger.Info("section warm-started from fleet record",
					"section", rec.Key.Section, "tenant", cfg.Tenant, "origin", rec.Origin)
			}
		})
	}
	s.registerMetrics()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /sections", s.handleSections)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	return s, nil
}

// registerMetrics builds the /metrics registry: request and run counters,
// run latencies, per-section adaptation switches, warm-start hits, and —
// when the store is replicated — sync lag and pending-push gauges.
func (s *Server) registerMetrics() {
	s.reg = metrics.NewRegistry()
	s.reg.BuildInfo()
	s.reg.CounterFunc("dfserved_requests_total",
		"HTTP requests received.", func() float64 { return float64(s.requests.Load()) })
	s.reg.CounterFunc("dfserved_runs_ok_total",
		"Workload runs completed successfully.", func() float64 { return float64(s.runsOK.Load()) })
	s.reg.CounterFunc("dfserved_runs_err_total",
		"Workload runs rejected or failed.", func() float64 { return float64(s.runsErr.Load()) })
	s.reg.CounterFunc("dfserved_warm_start_hits_total",
		"Sections seeded from a store record (at boot or live from the fleet).",
		func() float64 { return float64(s.warmHits.Load()) })
	s.reg.GaugeFunc("dfserved_uptime_seconds",
		"Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() }) //dfvet:allow walltime live uptime gauge; never feeds simulation results
	s.runSeconds = s.reg.Histogram("dfserved_run_seconds",
		"Wall-clock latency of workload runs.", metrics.DurationBuckets)
	s.reg.GaugeVecFunc("dfserved_section_switches",
		"Adaptation events per section: production entries that changed the chosen variant.",
		[]string{"section"}, func() []metrics.LabeledValue {
			out := make([]metrics.LabeledValue, 0, len(s.secs))
			for _, reg := range s.secs {
				snap := reg.sec.StatsSnapshot()
				out = append(out, metrics.LabeledValue{
					Labels: []string{reg.w.name}, Value: float64(snap.Switches)})
			}
			return out
		})
	if rs, ok := s.cfg.Backend.(*store.ReplStore); ok {
		s.reg.GaugeFunc("dfserved_store_sync_lag_seconds",
			"Time since the replicated store last synchronized with the hub.",
			func() float64 { return rs.Status().SyncLag(time.Now()).Seconds() }) //dfvet:allow walltime live replication-lag gauge against the hub clock
		s.reg.GaugeFunc("dfserved_store_connected",
			"1 while the replicated store is connected to the hub, 0 when partitioned.",
			func() float64 {
				if rs.Status().Connected {
					return 1
				}
				return 0
			})
		s.reg.GaugeFunc("dfserved_store_pending_pushes",
			"Local records waiting to be pushed to the hub.",
			func() float64 { return float64(rs.Status().Pending) })
	}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops the backend watch and persists every section's record
// (best effort, first error wins). It does not close the Backend — the
// caller owns it and typically flushes it after the HTTP listener drains.
func (s *Server) Close() error {
	if s.cancelWatch != nil {
		s.cancelWatch()
	}
	var first error
	for _, reg := range s.secs {
		if err := reg.sec.Persist(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WarmStartHits counts sections seeded from a store record, at boot or
// live from a replicated fleet record.
func (s *Server) WarmStartHits() int64 { return s.warmHits.Load() }

// SectionNames returns the registered native section names.
func (s *Server) SectionNames() []string {
	names := make([]string, len(s.secs))
	for i, reg := range s.secs {
		names[i] = reg.w.name
	}
	return names
}

// jsonContentType is the Content-Type header value of every JSON reply,
// shared so that setting it allocates nothing; net/http only reads it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        buildinfo.Version(),
		"go":             buildinfo.Runtime(),
		"uptime_seconds": time.Since(s.start).Seconds(), //dfvet:allow walltime live uptime in the status response
		"sections":       len(s.secs),
		"requests":       s.requests.Load(),
		"runs_ok":        s.runsOK.Load(),
		"runs_err":       s.runsErr.Load(),
	})
}

func (s *Server) handleSections(w http.ResponseWriter, r *http.Request) {
	type sectionJSON struct {
		Name         string   `json:"name"`
		Description  string   `json:"description"`
		Variants     []string `json:"variants"`
		DefaultIters int      `json:"default_iters"`
		Runs         int64    `json:"runs"`
		Iterations   int64    `json:"iterations"`
		WarmStarted  bool     `json:"warm_started"`
	}
	out := struct {
		Sections []sectionJSON `json:"sections"`
		OBLApps  []string      `json:"obl_apps"`
	}{OBLApps: apps.Names}
	for _, reg := range s.secs {
		var names []string
		for _, v := range reg.w.variants {
			names = append(names, v.Name)
		}
		out.Sections = append(out.Sections, sectionJSON{
			Name:         reg.w.name,
			Description:  reg.w.desc,
			Variants:     names,
			DefaultIters: reg.w.defaultIters,
			Runs:         reg.runs.Load(),
			Iterations:   reg.iters.Load(),
			WarmStarted:  reg.sec.WarmStarted(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sections := map[string]dynfb.Snapshot{}
	for _, reg := range s.secs {
		sections[reg.w.name] = reg.sec.StatsSnapshot()
	}
	doc := map[string]any{
		"server": map[string]any{
			"uptime_seconds":  time.Since(s.start).Seconds(), //dfvet:allow walltime live uptime in the status response
			"version":         buildinfo.Version(),
			"requests":        s.requests.Load(),
			"runs_ok":         s.runsOK.Load(),
			"runs_err":        s.runsErr.Load(),
			"max_concurrent":  s.cfg.MaxConcurrent,
			"store":           s.cfg.Backend != nil,
			"tenant":          s.cfg.Tenant,
			"warm_start_hits": s.warmHits.Load(),
		},
		"sections": sections,
	}
	if rs, ok := s.cfg.Backend.(*store.ReplStore); ok {
		st := rs.Status()
		doc["store_sync"] = map[string]any{
			"connected":        st.Connected,
			"hub_seq":          st.HubSeq,
			"pending_pushes":   st.Pending,
			"sync_lag_seconds": st.SyncLag(time.Now()).Seconds(), //dfvet:allow walltime live replication lag in the status response
		}
	}
	if s.cfg.Cache != nil {
		doc["simcache"] = s.cfg.Cache.Stats()
	}
	s.adaptMu.Lock()
	last := s.lastAdapt
	s.adaptMu.Unlock()
	if last.res != nil {
		doc["adaptations"] = last.record()
	}
	writeJSON(w, http.StatusOK, doc)
}

// runRequest is the body of POST /run. Exactly one of Section and App
// must be set, and a field of the other kind (Iters for an app; Procs,
// Policy, Perturb or Schedule for a section) is refused unless it holds
// its zero value.
type runRequest struct {
	// Section runs a registered native adaptive section.
	Section string `json:"section,omitempty"`
	// Iters overrides the section's default iteration count (native
	// sections only).
	Iters int `json:"iters,omitempty"`
	// App runs a bundled OBL application on the simulated machine.
	App string `json:"app,omitempty"`
	// Procs is the simulated processor count (OBL runs). Default 8.
	Procs int `json:"procs,omitempty"`
	// Policy is a static policy name, "dynamic" (default) or "serial"
	// (OBL runs).
	Policy string `json:"policy,omitempty"`
	// Params are workload parameters: booleans/numbers for native
	// sections, integer program-parameter overrides for OBL apps.
	Params map[string]any `json:"params,omitempty"`
	// Perturb names a built-in perturbation scenario (internal/perturb)
	// applied to the simulated machine (OBL runs only).
	Perturb string `json:"perturb,omitempty"`
	// Schedule is an inline perturbation schedule (OBL runs only);
	// mutually exclusive with Perturb.
	Schedule *perturb.Schedule `json:"schedule,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRunBody))
	var req runRequest
	var err error
	if readErr != nil || !decodeRunRequest(buf.Bytes(), &req) {
		req, err = decodeRunRequestJSON(buf.Bytes(), readErr)
	}
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
	if err != nil {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	switch {
	case req.Section != "" && req.App != "":
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "set exactly one of \"section\" and \"app\"")
	case req.Section != "":
		s.runSection(w, r, req)
	case req.App != "":
		s.runApp(w, r, req)
	default:
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "set \"section\" (one of %v) or \"app\" (one of %v)",
			s.SectionNames(), apps.Names)
	}
}

// acquireSlot takes a shared worker-pool slot, honoring cancellation.
func (s *Server) acquireSlot(r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) runSection(w http.ResponseWriter, r *http.Request, req runRequest) {
	reg, ok := s.byName[req.Section]
	if !ok {
		s.runsErr.Add(1)
		writeError(w, http.StatusNotFound, "unknown section %q (have %v)", req.Section, s.SectionNames())
		return
	}
	if req.Perturb != "" || req.Schedule != nil {
		// Native sections run on the host, not the simulated machine;
		// there is no parameter table to perturb.
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "perturbation applies to simulated OBL runs only, not native sections")
		return
	}
	if req.Procs != 0 || req.Policy != "" {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "\"procs\" and \"policy\" apply to OBL app runs only, not native sections")
		return
	}
	iters := req.Iters
	if iters == 0 {
		iters = reg.w.defaultIters
	}
	if iters < 0 || iters > 100_000_000 {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "iters %d outside [0, 1e8]", iters)
		return
	}
	if !s.acquireSlot(r) {
		s.runsErr.Add(1)
		writeError(w, http.StatusServiceUnavailable, "request canceled while queued")
		return
	}
	defer func() { <-s.sem }()

	reg.mu.Lock()
	for key, val := range req.Params {
		if err := reg.w.setParam(key, val); err != nil {
			reg.mu.Unlock()
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	start := time.Now() //dfvet:allow walltime wall latency of serving the request, observed into a histogram
	reg.sec.Run(0, iters)
	wall := time.Since(start) //dfvet:allow walltime wall latency of serving the request, observed into a histogram
	reg.mu.Unlock()

	s.runSeconds.Observe(wall.Seconds())
	reg.runs.Add(1)
	reg.iters.Add(int64(iters))
	s.runsOK.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"kind":    "section",
		"section": req.Section,
		"iters":   iters,
		"wall_ns": wall.Nanoseconds(),
		"stats":   reg.sec.StatsSnapshot(),
	})
}

// staticPolicies are the policy names /run accepts beside "dynamic" and
// "serial".
var staticPolicies = oblc.Policies()

// compiledApp compiles a bundled application once and caches it.
func (s *Server) compiledApp(name string) (*oblc.Compiled, error) {
	s.appMu.Lock()
	defer s.appMu.Unlock()
	if c, ok := s.compiled[name]; ok {
		return c, nil
	}
	c, err := apps.Compile(name)
	if err != nil {
		return nil, err
	}
	s.compiled[name] = c
	return c, nil
}

func (s *Server) runApp(w http.ResponseWriter, r *http.Request, req runRequest) {
	c, err := s.compiledApp(req.App)
	if err != nil {
		s.runsErr.Add(1)
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if req.Iters != 0 {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "\"iters\" applies to native sections only, not OBL app runs")
		return
	}
	procs := req.Procs
	if procs == 0 {
		procs = 8
	}
	if procs < 1 || procs > 64 {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "procs %d outside [1, 64]", procs)
		return
	}
	policy := req.Policy
	if policy == "" {
		policy = interp.PolicyDynamic
	}
	if policy != interp.PolicyDynamic && policy != "serial" && !slices.Contains(staticPolicies, policy) {
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "unknown policy %q (want dynamic, serial, or one of %v)",
			policy, staticPolicies)
		return
	}
	var sched *perturb.Schedule
	perturbName := ""
	switch {
	case req.Perturb != "" && req.Schedule != nil:
		s.runsErr.Add(1)
		writeError(w, http.StatusBadRequest, "set at most one of \"perturb\" and \"schedule\"")
		return
	case req.Perturb != "":
		var ok bool
		if sched, ok = perturb.Scenario(req.Perturb); !ok {
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "unknown perturbation scenario %q (have %v)",
				req.Perturb, perturb.ScenarioNames())
			return
		}
		perturbName = req.Perturb
	case req.Schedule != nil:
		if err := req.Schedule.Validate(); err != nil {
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "bad perturbation schedule: %v", err)
			return
		}
		sched = req.Schedule
		perturbName = "custom"
		if req.Schedule.Name != "" {
			perturbName = req.Schedule.Name
		}
	}
	// Serve the fast test-scale inputs by default; clients override
	// individual program parameters (integers) through params.
	params := apps.TestParams(req.App)
	bounds := apps.ParamBounds(req.App)
	for key, val := range req.Params {
		// interp.Run ignores an override the program does not declare, but
		// CacheKey hashes it: a typo would run the default size, report
		// success and take a cache entry of its own.
		if _, ok := c.Parallel.Params[key]; !ok {
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "app %q has no parameter %q (have %v)",
				req.App, key, c.Parallel.ParamNames)
			return
		}
		// Request numbers arrive as float64: from ±2^53 on neighbouring
		// integers share one (2^53+1 reads as 2^53), and the run would
		// take another's cache entry.
		f, ok := val.(float64)
		if !ok || f != float64(int64(f)) || math.Abs(f) >= 1<<53 {
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "parameter %q wants an integer, got %v", key, val)
			return
		}
		// The program allocates and loops by its parameters: an absurd
		// value would otherwise reach the VM's make or run for ever, and
		// one below what the program needs would fault or run as a
		// smaller value would, under a cache entry of its own.
		switch v, b := int64(f), bounds[key]; {
		case v > b.Max:
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "parameter %q = %d exceeds its bound %d", key, v, b.Max)
			return
		case v < b.Min:
			s.runsErr.Add(1)
			writeError(w, http.StatusBadRequest, "parameter %q = %d is below its bound %d", key, v, b.Min)
			return
		}
		params[key] = int64(f)
	}
	prog := c.Parallel
	opts := interp.Options{
		Procs:            procs,
		Policy:           policy,
		TargetSampling:   simmach.Time(s.cfg.TargetSampling),
		TargetProduction: simmach.Time(s.cfg.TargetProduction),
		Params:           params,
		Perturb:          sched,
		Controller:       s.cfg.Controller,
	}
	if policy == "serial" {
		prog = c.Serial
		opts.Policy = ""
		opts.Procs = 1
	}
	start := time.Now() //dfvet:allow walltime wall latency of serving the request, observed into a histogram
	var res *interp.Result
	cached := false
	key := ""
	if s.cfg.Cache != nil {
		if k, ok := interp.CacheKey(prog, opts); ok {
			key = k
			res, cached = s.cfg.Cache.Get(key)
		}
	}
	if !cached {
		// Only a simulation needs a slot: a hit neither queues behind the
		// running ones nor counts their wait into its wall time.
		if !s.acquireSlot(r) {
			s.runsErr.Add(1)
			writeError(w, http.StatusServiceUnavailable, "request canceled while queued")
			return
		}
		res, err = func() (*interp.Result, error) {
			defer func() { <-s.sem }()
			return interp.Run(prog, opts)
		}()
		if err != nil {
			s.runsErr.Add(1)
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if key != "" {
			s.cfg.Cache.Put(key, res)
		}
	}
	wall := time.Since(start) //dfvet:allow walltime wall latency of serving the request, observed into a histogram
	s.runSeconds.Observe(wall.Seconds())

	reply := runReply{app: req.App, policy: policy, perturb: perturbName, procs: procs,
		cached: cached, wallNS: wall.Nanoseconds()}
	if slices.ContainsFunc(res.Sections, func(sec *interp.SectionStats) bool { return len(sec.Switches) > 0 }) {
		s.adaptMu.Lock()
		s.lastAdapt = adaptedRun{reply, res}
		s.adaptMu.Unlock()
	}
	s.runsOK.Add(1)

	buf := replyBufs.Get().(*[]byte)
	*buf = appendRunReply((*buf)[:0], reply, res)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(*buf)
	if cap(*buf) <= maxPooledReply {
		replyBufs.Put(buf)
	}
}
