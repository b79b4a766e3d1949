package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/dynfb"
	"repro/dynfb/store"
	"repro/dynfb/store/hub"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/interp"
	"repro/internal/obl/ast"
	"repro/internal/obl/parser"
	"repro/internal/obl/polgen"
	"repro/internal/obl/sema"
	"repro/internal/obl/vm"
	"repro/internal/perturb"
	"repro/internal/serve"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

// Probes are micro-benchmarks of one layer each, through its public API.
// They run in every traced run, before the windows, and do not depend on
// the workload or the seed: a probe's value on two workloads is the same
// measurement taken twice.

type probe func(cfg config, reps int, out metricSet) error

func runProbes(cfg config, out metricSet) error {
	reps := 5
	if cfg.small {
		reps = 1
	}
	for _, p := range []probe{probeCompile, probeEngine, probeSimmach, probeCore, probeAdapt, probePerturb,
		probeSimcache, probeServe, probeStore, probeHub, probePropagate, probeFleet, probeDynfb} {
		if err := p(cfg, reps, out); err != nil {
			return err
		}
	}
	return nil
}

// probeCompile: the front end and both compilers, median over the three apps.
func probeCompile(_ config, reps int, out metricSet) error {
	var parse, check, compile, vmCompile []time.Duration
	codeBytes := 0
	for _, app := range apps.Names {
		src, err := apps.Source(app)
		if err != nil {
			return err
		}
		var prog *ast.Program
		parse = append(parse, timeMedian(reps, func() { prog, err = parser.Parse(src) }))
		if err != nil {
			return err
		}
		check = append(check, timeMedian(reps, func() { _, err = sema.Check(prog) }))
		if err != nil {
			return err
		}
		var c *oblc.Compiled
		compile = append(compile, timeMedian(reps, func() { c, err = oblc.Compile(src) }))
		if err != nil {
			return err
		}
		codeBytes += c.Sizes().Dynamic
		vmCompile = append(vmCompile, timeMedian(reps, func() { _, err = vm.Compile(c.Parallel) }))
		if err != nil {
			return err
		}
	}
	out.set("oblc.parse_ms", ms(medianDur(parse)))
	out.set("oblc.check_ms", ms(medianDur(check)))
	out.set("oblc.compile_ms", ms(medianDur(compile)))
	out.set("oblc.code_bytes", float64(codeBytes))
	out.set("vm.compile_ms", ms(medianDur(vmCompile)))

	src, _ := apps.Source(apps.NameWater)
	t := time.Now()
	if _, err := oblc.CompileWithSpecs(src, polgen.Space()); err != nil {
		return err
	}
	out.set("oblc.compile_gen18_ms", ms(time.Since(t)))
	return nil
}

// probeParams is the Barnes-Hut input of the engine probes.
var probeParams = map[string]int64{"nbodies": 128, "listlen": 64, "interwork": 20000, "npasses": 1, "serialwork": 50000}

// probeEngine: VM warm-up, VM against the step interpreter, allocation
// count, cache-key cost, and the host cost of a lock pair. The last is
// (host(original) - host(aggressive)) / (acquires(original) -
// acquires(aggressive)) on Barnes-Hut, where the two policies execute the
// same VM work and differ only in how often they lock.
func probeEngine(_ config, reps int, out metricSet) error {
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		return err
	}
	t := time.Now()
	fp := interp.Fingerprint(c.Parallel)
	out.set("interp.fingerprint_ms", ms(time.Since(t)))
	if fp == "" {
		return errors.New("empty program fingerprint")
	}

	opts := func(policy string, procs int, engine string) interp.Options {
		return interp.Options{Procs: procs, Policy: policy, Params: probeParams, Engine: engine}
	}
	var res *interp.Result
	runOnce := func(o interp.Options) func() {
		return func() {
			if err == nil {
				res, err = interp.Run(c.Parallel, o)
			}
		}
	}
	reps = max(reps, 3)
	first := timeMedian(1, runOnce(opts("aggressive", 8, "")))
	aggr := timeMedian(reps, runOnce(opts("aggressive", 8, "")))
	if err != nil {
		return err
	}
	out.set("vm.warmup_penalty_ms", ms(first-aggr))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runOnce(opts("aggressive", 8, ""))()
	runtime.ReadMemStats(&after)
	out.set("interp.allocs_per_run", float64(after.Mallocs-before.Mallocs))

	bounded := timeMedian(reps, runOnce(opts("bounded", 16, "")))
	aggrInterp := timeMedian(reps, runOnce(opts("aggressive", 8, interp.EngineInterp)))
	boundedInterp := timeMedian(reps, runOnce(opts("bounded", 16, interp.EngineInterp)))
	out.set("vm.speedup_over_interp", float64(aggrInterp+boundedInterp)/float64(aggr+bounded))

	// The lock-pair cost is a difference of two timings, which doubles their
	// noise, and the host's noise only ever adds time: use a larger input,
	// alternate the two policies so both see the same spell of the host, and
	// take each side's fastest run rather than its median.
	big := func(policy string) interp.Options {
		o := opts(policy, 8, "")
		o.Params = map[string]int64{"nbodies": 384, "listlen": 64, "interwork": 20000, "npasses": 1, "serialwork": 50000}
		return o
	}
	var aggrBest, origBest time.Duration
	var pairs int64
	for i := 0; i < 2*reps; i++ {
		a := timeMedian(1, runOnce(big("aggressive")))
		if err != nil {
			return err
		}
		pairs = -res.Counters.Acquires
		o := timeMedian(1, runOnce(big("original")))
		if err != nil {
			return err
		}
		pairs += res.Counters.Acquires
		if i == 0 || a < aggrBest {
			aggrBest = a
		}
		if i == 0 || o < origBest {
			origBest = o
		}
	}
	if pairs > 0 {
		out.set("simmach.ns_per_lock_pair", max(0, float64(origBest-aggrBest)/float64(pairs)))
	}

	const keys = 200
	t = time.Now()
	for i := 0; i < keys; i++ {
		if _, ok := interp.CacheKey(c.Parallel, opts("original", 8, "")); !ok {
			return errors.New("probe cell is not cacheable")
		}
	}
	out.set("interp.cachekey_us", us(time.Since(t))/keys)
	return nil
}

// probeSimmach drives synthetic ProcessFunc kernels through the machine's
// public API: pure dispatch at 1 and 16 processors, 16 processors handing
// one lock around, 16 processors meeting at a barrier, and a checkpoint and
// restore of a machine with 16 processors and 64 locks.
func probeSimmach(_ config, reps int, out metricSet) error {
	const steps = 20000
	kernel := func(procs int, body func(m *simmach.Machine, id int) simmach.ProcessFunc) (time.Duration, error) {
		var err error
		d := timeMedian(reps, func() {
			m := simmach.New(simmach.DefaultConfig(procs))
			for i := 0; i < procs; i++ {
				m.Start(i, body(m, i))
			}
			if e := m.Run(); e != nil {
				err = e
			}
		})
		return d, err
	}
	spin := func(*simmach.Machine, int) simmach.ProcessFunc {
		n := 0
		return func(p *simmach.Proc) simmach.Status {
			p.Advance(100)
			if n++; n == steps {
				return simmach.Done
			}
			return simmach.Ready
		}
	}
	for _, procs := range []int{1, 16} {
		d, err := kernel(procs, spin)
		if err != nil {
			return err
		}
		out.set("simmach.dispatch_ns_p"+strconv.Itoa(procs), float64(d)/float64(steps*procs))
	}

	const pairs = 2000
	var lock *simmach.Lock
	handoff := func(m *simmach.Machine, id int) simmach.ProcessFunc {
		if id == 0 {
			lock = m.NewLock("hot")
		}
		n, holding := 0, false
		return func(p *simmach.Proc) simmach.Status {
			if !holding {
				holding = true
				if !p.Acquire(lock) {
					return simmach.Blocked
				}
				return simmach.Ready
			}
			p.Advance(100)
			p.Release(lock)
			holding = false
			if n++; n == pairs {
				return simmach.Done
			}
			return simmach.Ready
		}
	}
	d, err := kernel(16, handoff)
	if err != nil {
		return err
	}
	out.set("simmach.handoff_ns_p16", float64(d)/float64(pairs*16))

	var barrier *simmach.Barrier
	meet := func(m *simmach.Machine, id int) simmach.ProcessFunc {
		if id == 0 {
			barrier = m.NewBarrier(16)
		}
		n := 0
		return func(p *simmach.Proc) simmach.Status {
			if n == pairs {
				return simmach.Done
			}
			n++
			p.Advance(simmach.Time(100 + id))
			p.BarrierArrive(barrier)
			return simmach.Blocked
		}
	}
	if d, err = kernel(16, meet); err != nil {
		return err
	}
	out.set("simmach.barrier_ns_p16", float64(d)/float64(pairs*16))

	// Checkpoint and restore, at the start of one of processor 0's steps as
	// the protocol requires; restoring at once keeps the kernel's own state
	// in step with the machine's.
	var ckTime, restoreTime time.Duration
	m := simmach.New(simmach.DefaultConfig(16))
	for i := 0; i < 64; i++ {
		m.NewLock("l" + strconv.Itoa(i))
	}
	taken := false
	for i := 0; i < 16; i++ {
		id, n := i, 0
		m.Start(i, simmach.ProcessFunc(func(p *simmach.Proc) simmach.Status {
			if id == 0 && n == 50 && !taken {
				taken = true
				var ck *simmach.Checkpoint
				ckTime = timeMedian(max(reps, 3), func() { ck = m.Checkpoint() })
				t := time.Now()
				m.Restore(ck)
				restoreTime = time.Since(t)
				return simmach.Restored
			}
			p.Advance(100)
			if n++; n == 100 {
				return simmach.Done
			}
			return simmach.Ready
		}))
	}
	if err := m.Run(); err != nil {
		return err
	}
	out.set("simmach.checkpoint_us", us(ckTime))
	out.set("simmach.restore_us", us(restoreTime))
	return nil
}

// probeCore drives each controller through the Ctl protocol with synthetic
// measurements, at 3 and at 18 policies, and reports the mean host cost of
// one phase transition.
func probeCore(_ config, _ int, out metricSet) error {
	const phases = 5000
	for kind, metric := range map[string]string{core.KindRoundRobin: "core.rr_ns_per_phase", core.KindUCB: "core.ucb_ns_per_phase"} {
		var total time.Duration
		for _, n := range []int{3, 18} {
			pols := make([]core.PolicyInfo, n)
			for i := range pols {
				pols[i].Name = "p" + strconv.Itoa(i)
			}
			ctl, err := core.NewCtl(kind, core.Config{Policies: pols, TargetSampling: 1000, TargetProduction: 10000})
			if err != nil {
				return err
			}
			ctl.BeginExecution(0)
			t := time.Now()
			var now core.Nanos
			for i := 0; i < phases; i++ {
				now = ctl.Deadline()
				if !ctl.Expired(now) {
					return fmt.Errorf("%s controller not expired at its own deadline", kind)
				}
				p := core.Nanos(ctl.CurrentPolicy())
				ctl.CompletePhase(now, core.Measurement{Acquires: 100, LockTime: 100 + 10*p, WaitTime: 5 * p, ExecTime: 1000})
			}
			total += time.Since(t)
			ctl.EndExecution(now, core.Measurement{})
		}
		out.set(metric, float64(total)/(2*phases))
	}
	return nil
}

// probeAdapt runs the 35 adapt cells: the four perturb scenarios as the
// adapt-* experiments configure them and the three apps unperturbed at p=8,
// each under the three static policies, round-robin dynamic and UCB dynamic.
// The quality metrics are on simulated time at a fixed seed, so they repeat
// exactly: a controller change that buys host speed by degrading decisions
// (or the reverse) shows in them beside the two host costs.
func probeAdapt(cfg config, _ int, out metricSet) error {
	sw, err := newSimWorld("adapt", adaptCells(rand.New(rand.NewSource(1)), cfg.small))
	if err != nil {
		return err
	}
	sw.adaptLayer(out)
	var static, dyn []time.Duration
	for i, c := range sw.cells {
		t := time.Now()
		res, err := interp.Run(sw.progs[i], c.opts)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("adapt probe: %s: %w", c.id(), err)
		}
		if enc, err := simcache.EncodeResult(res); err != nil || !bytes.Equal(enc, sw.refs[i]) {
			return fmt.Errorf("adapt probe: %s: VM result differs from the reference engine's (%v)", c.id(), err)
		}
		if c.opts.Policy == interp.PolicyDynamic {
			dyn = append(dyn, d)
		} else {
			static = append(static, d)
		}
	}
	out.set("core.static_cell_ms", ms(meanDur(static)))
	out.set("core.dyn_cell_ms", ms(meanDur(dyn)))
	return nil
}

// probePerturb: building a schedule's ParamTable, and what a perturbed run
// costs the host over the same run unperturbed.
func probePerturb(_ config, reps int, out metricSet) error {
	base := simmach.DefaultConfig(8).Normalized()
	var err error
	out.set("perturb.table_build_us", us(timeMedian(max(reps, 3), func() { _, err = perturb.Ramp().Table(base) })))
	if err != nil {
		return err
	}
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		return err
	}
	o := interp.Options{Procs: 8, Policy: "original",
		Params: map[string]int64{"nmol": 32, "nsteps": 40, "energydepth": 2, "serialwork": 4000}}
	run := func() { _, err = interp.Run(c.Parallel, o) }
	run() // profiling run
	plain := timeMedian(min(reps, 3), run)
	o.Perturb = perturb.Periodic()
	perturbed := timeMedian(min(reps, 3), run)
	if err != nil {
		return err
	}
	out.set("perturb.host_overhead_ratio", float64(perturbed)/float64(plain))
	return nil
}

// probeSimcache: encode, put (disk tier on), and a hit from each tier, on a
// dynamic-policy Water result.
func probeSimcache(cfg config, _ int, out metricSet) error {
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		return err
	}
	res, err := interp.Run(c.Parallel, interp.Options{Procs: 8, Params: apps.TestParams(apps.NameWater)})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "probe-cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := simcache.New(simcache.Config{Dir: dir})
	if err != nil {
		return err
	}
	const n = 50
	t := time.Now()
	for i := 0; i < n; i++ {
		if _, err := simcache.EncodeResult(res); err != nil {
			return err
		}
	}
	out.set("simcache.encode_us", us(time.Since(t))/n)
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	t = time.Now()
	for i := 0; i < n; i++ {
		cache.Put(key(i), res)
	}
	out.set("simcache.put_us", us(time.Since(t))/n)
	t = time.Now()
	for i := 0; i < 20*n; i++ {
		cache.Get(key(i % n))
	}
	out.set("simcache.get_mem_us", us(time.Since(t))/(20*n))
	diskOnly, err := simcache.New(simcache.Config{Dir: dir, MemEntries: -1})
	if err != nil {
		return err
	}
	t = time.Now()
	for i := 0; i < n; i++ {
		diskOnly.Get(key(i))
	}
	out.set("simcache.get_disk_us", us(time.Since(t))/n)
	if s := diskOnly.Stats(); s.DiskHits != n || cache.Stats().Errors != 0 {
		return fmt.Errorf("simcache probe: %d of %d disk hits, %d put errors", s.DiskHits, n, cache.Stats().Errors)
	}
	if st, err := os.Stat(filepath.Join(dir, key(0)+".json")); err == nil {
		out.set("simcache.entry_bytes", float64(st.Size()))
	}
	return nil
}

// probeServe calls the handler on a recorder, with no socket: a cached /run,
// /stats and /metrics.
func probeServe(_ config, _ int, out metricSet) error {
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Cache: cache, Logger: quiet})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"app":"water","policy":"dynamic","procs":8}`)
	call := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	if rec := call(http.MethodPost, "/run", body); rec.Code != http.StatusOK {
		return fmt.Errorf("serve probe: /run: status %d: %s", rec.Code, rec.Body)
	}
	missSum, missCount := scrapeRunSeconds(call(http.MethodGet, "/metrics", nil).Body.String())
	const n = 200
	var last *httptest.ResponseRecorder
	t := time.Now()
	for i := 0; i < n; i++ {
		last = call(http.MethodPost, "/run", body)
	}
	out.set("serve.handler_us", us(time.Since(t))/n)
	out.set("serve.resp_bytes", float64(last.Body.Len()))
	out.set("serve.stats_us", us(timeMedian(20, func() { call(http.MethodGet, "/stats", nil) })))
	var scraped string
	out.set("serve.metrics_us", us(timeMedian(20, func() { scraped = call(http.MethodGet, "/metrics", nil).Body.String() })))
	// The server's own view of a cached run: its run_seconds histogram, less
	// the one miss that filled the cache.
	if sum, count := scrapeRunSeconds(scraped); count > missCount {
		out.set("serve.internal_run_us", (sum-missSum)*1e6/(count-missCount))
	}
	return nil
}

// scrapeRunSeconds extracts dfserved_run_seconds' sum and count from a scrape.
func scrapeRunSeconds(scrape string) (sum, count float64) {
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, "dfserved_run_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(line, "dfserved_run_seconds_count "); ok {
			count, _ = strconv.ParseFloat(v, 64)
		}
	}
	return sum, count
}

// probeStore runs the same seeded 50 % CAS-put / 50 % get mix on each
// backend, then reopens the KV store over the log those puts left.
func probeStore(cfg config, _ int, out metricSet) error {
	dir, err := os.MkdirTemp(cfg.workdir, "probe-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mix := func(b store.Backend, name string) (puts int, err error) {
		r := rand.New(rand.NewSource(7))
		var putT, getT []time.Duration
		for i := 0; i < 200; i++ {
			k := store.Key{Section: "s" + strconv.Itoa(r.Intn(32)), Env: "probe"}
			t := time.Now()
			cur, ok, err := b.Get(k)
			if err != nil {
				return 0, err
			}
			if r.Intn(2) == 0 {
				getT = append(getT, time.Since(t))
				continue
			}
			rec := store.VersionedRecord{Key: k, Clock: 1, Record: store.Record{Section: k.Section, Winner: "v", Rounds: i}}
			if ok {
				rec.Clock = cur.Clock + 1
			}
			t = time.Now()
			if _, err := b.Put(rec, cur.Version); err != nil {
				return 0, err
			}
			putT = append(putT, time.Since(t))
		}
		out.set("store."+name+"_put_us", us(medianDur(putT)))
		out.set("store."+name+"_get_us", us(medianDur(getT)))
		return len(putT), nil
	}
	if _, err := mix(store.NewMemStore(), "mem"); err != nil {
		return err
	}
	file, err := store.OpenFile(filepath.Join(dir, "file.json"))
	if err != nil {
		return err
	}
	defer file.Close()
	if _, err := mix(file, "file"); err != nil {
		return err
	}
	kv, err := store.OpenKV(filepath.Join(dir, "kv"))
	if err != nil {
		return err
	}
	defer kv.Close()
	puts, err := mix(kv, "kv")
	if err != nil {
		return err
	}
	if st, err := os.Stat(filepath.Join(dir, "kv", "wal.log")); err == nil && puts > 0 {
		out.set("store.kv_wal_bytes_per_put", float64(st.Size())/float64(puts))
	}
	t := time.Now()
	again, err := store.OpenKV(filepath.Join(dir, "kv"))
	if err != nil {
		return err
	}
	out.set("store.kv_reopen_ms", ms(time.Since(t)))
	return again.Close()
}

// probeHub: merging a batch, a push round trip over loopback, and a full
// state read, each at 256 records.
func probeHub(_ config, reps int, out metricSet) error {
	h, err := hub.New(hub.Config{Logger: quiet})
	if err != nil {
		return err
	}
	batch := make([]store.VersionedRecord, 256)
	for i := range batch {
		k := store.Key{Section: "s" + strconv.Itoa(i), Env: "probe"}
		batch[i] = store.VersionedRecord{Key: k, Clock: 1, Origin: "probe", Record: store.Record{Section: k.Section, Winner: "v"}}
	}
	t := time.Now()
	if _, applied, err := h.Apply(batch); err != nil || applied != len(batch) {
		return fmt.Errorf("hub probe: applied %d of %d: %v", applied, len(batch), err)
	}
	out.set("hub.apply_us_per_record", us(time.Since(t))/float64(len(batch)))

	lis, err := listen(h.Handler())
	if err != nil {
		return err
	}
	defer lis.stop()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	roundTrip := func(method, path string, body []byte) error {
		req, err := http.NewRequest(method, lis.url+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("hub probe: %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	clock := uint64(1)
	push := func() {
		clock++
		one := batch[0]
		one.Clock = clock
		body, _ := json.Marshal(hub.PushRequest{Origin: "probe", Records: []store.VersionedRecord{one}})
		if e := roundTrip(http.MethodPost, "/v1/push", body); e != nil {
			err = e
		}
	}
	push() // opens the connection
	out.set("hub.push_rtt_us", us(timeMedian(10*reps, push)))
	out.set("hub.state_ms", ms(timeMedian(max(reps, 3), func() {
		if e := roundTrip(http.MethodGet, "/v1/state", nil); e != nil {
			err = e
		}
	})))
	return err
}

// probePropagate is the store -> hub -> peer half of the serving path: one
// writer CAS-Puts to replica A over 256 seeded keys and waits for replica
// B's Watch to deliver that (key, clock): WAL append and fsync, push,
// long-poll wake, LWW merge. Every delivered record must equal the written
// one, and A, B and the hub must end up holding identical records.
func probePropagate(cfg config, _ int, out metricSet) error {
	w, err := fleetSetup(cfg)
	if err != nil {
		return err
	}
	defer w.close()
	window := 1500 * time.Millisecond
	if cfg.small {
		window = 200 * time.Millisecond
	}
	tr := newTracer()
	st := runWindow(w, window, tr)
	if st.failed > 0 || st.samples == 0 {
		return fmt.Errorf("fleet probe: %d of %d propagations failed: %v", st.failed, st.attempted, st.errs)
	}
	if err := w.verify(); err != nil {
		return fmt.Errorf("fleet probe: end state: %w", err)
	}
	out.set("fleet.propagate_p50_us", us(st.p50))
	out.set("fleet.propagate_p95_us", us(st.p95))
	self, n := selfTimes(tr.spans), float64(st.attempted)
	out.set("fleet.store_put_us", us(self["store.put"])/n)
	out.set("fleet.hub_push_us", us(self["hub.push"])/n)
	out.set("fleet.watch_wake_us", us(self["hub.watch_wake"])/n)
	w.layer(st, out)
	return nil
}

// probeFleet times a replica joining a fleet whose hub already holds a
// winner: OpenRepl's bootstrap plus serve.New, until a section reports a
// warm start.
func probeFleet(_ config, _ int, out metricSet) error {
	h, err := fleet.StartHub("", nil, quiet)
	if err != nil {
		return err
	}
	defer h.Close()
	rcfg := fleet.ReplicaConfig{Name: "r1", HubURL: h.URL, Tenant: "probe", Workers: 1,
		TargetSampling: time.Millisecond, TargetProduction: 20 * time.Millisecond, Logger: quiet}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r1, err := fleet.StartReplica(rcfg)
	if err != nil {
		return err
	}
	section := r1.Server.SectionNames()[0]
	rep := fleet.Drive(ctx, r1.URL, fleet.LoadConfig{Section: section, QPS: 200, Duration: 10 * time.Second, Concurrency: 1,
		Until: func() bool {
			p, err := fleet.Probe(ctx, r1.URL)
			return err == nil && p.Sections[section].Winner != ""
		}})
	if err := r1.Drain(ctx); err != nil {
		return err
	}
	if rep.Errors > 0 {
		return fmt.Errorf("fleet probe: %d of %d requests failed while finding a winner", rep.Errors, rep.Requests)
	}
	rcfg.Name = "r2"
	t := time.Now()
	r2, err := fleet.StartReplica(rcfg)
	if err != nil {
		return err
	}
	defer r2.Drain(ctx)
	if err := fleet.WaitFor(ctx, 5*time.Second, time.Millisecond, func() bool { return r2.Server.WarmStartHits() > 0 }); err != nil {
		return fmt.Errorf("fleet probe: joining replica never warm-started: %w", err)
	}
	out.set("fleet.warm_boot_ms", ms(time.Since(t)))
	return nil
}

// probeDynfb: a native section with one worker and a single variant, once
// with an empty body (dispatch cost per iteration) and once locking an
// uncontended mutex (the added cost of a lock pair).
func probeDynfb(_ config, reps int, out metricSet) error {
	const iters = 200000
	perIter := func(body func(ctx *dynfb.Ctx, i int)) (float64, error) {
		sec, err := dynfb.NewSection(dynfb.Config{Workers: 1, LockPairCost: time.Nanosecond}, dynfb.Variant{Name: "only", Body: body})
		if err != nil {
			return 0, err
		}
		return float64(timeMedian(max(reps, 3), func() { sec.Run(0, iters) })) / iters, nil
	}
	empty, err := perIter(func(*dynfb.Ctx, int) {})
	if err != nil {
		return err
	}
	mu := dynfb.NewMutex()
	locked, err := perIter(func(ctx *dynfb.Ctx, _ int) {
		ctx.Lock(mu)
		ctx.Unlock(mu)
	})
	if err != nil {
		return err
	}
	out.set("dynfb.dispatch_ns_per_iter", empty)
	out.set("dynfb.lock_ns_per_pair", max(0, locked-empty))
	return nil
}
