package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/dynfb"
	"repro/dynfb/store"
	"repro/internal/simcache"
)

func testServer(t *testing.T, st store.Backend) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Workers:          2,
		TargetSampling:   time.Millisecond,
		TargetProduction: 50 * time.Millisecond,
		Backend:          st,
		MaxConcurrent:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postRun(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, nil)
	var out struct {
		Status   string  `json:"status"`
		Uptime   float64 `json:"uptime_seconds"`
		Sections int     `json:"sections"`
	}
	getJSON(t, ts.URL+"/healthz", &out)
	if out.Status != "ok" || out.Sections != 2 {
		t.Errorf("healthz = %+v", out)
	}
}

func TestSectionsListing(t *testing.T) {
	_, ts := testServer(t, nil)
	var out struct {
		Sections []struct {
			Name     string   `json:"name"`
			Variants []string `json:"variants"`
		} `json:"sections"`
		OBLApps []string `json:"obl_apps"`
	}
	getJSON(t, ts.URL+"/sections", &out)
	if len(out.Sections) != 2 || out.Sections[0].Name != "sort" || out.Sections[1].Name != "histogram" {
		t.Fatalf("sections = %+v", out.Sections)
	}
	if len(out.Sections[0].Variants) != 2 {
		t.Errorf("sort variants = %v", out.Sections[0].Variants)
	}
	if len(out.OBLApps) != 3 {
		t.Errorf("obl apps = %v", out.OBLApps)
	}
}

// TestRunSectionAndLiveStats is the serving acceptance test: a workload
// submission runs an adaptive section, and /stats then reports live
// per-variant overheads and the winner.
func TestRunSectionAndLiveStats(t *testing.T) {
	_, ts := testServer(t, nil)
	status, out := postRun(t, ts.URL, `{"section":"sort","iters":30000,"params":{"shuffled":false}}`)
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %v", status, out)
	}
	if out["kind"] != "section" || out["iters"].(float64) != 30000 {
		t.Errorf("run response = %v", out)
	}
	stats, ok := out["stats"].(map[string]any)
	if !ok || stats["current"] == "" {
		t.Fatalf("run response lacks stats: %v", out)
	}

	var live struct {
		Server   map[string]any            `json:"server"`
		Sections map[string]dynfb.Snapshot `json:"sections"`
	}
	getJSON(t, ts.URL+"/stats", &live)
	snap, ok := live.Sections["sort"]
	if !ok {
		t.Fatalf("no sort section in stats: %+v", live.Sections)
	}
	if len(snap.Stats) != 2 {
		t.Fatalf("variants = %+v", snap.Stats)
	}
	sampled := 0
	for _, v := range snap.Stats {
		sampled += v.TimesSampled
	}
	if sampled < 2 {
		t.Errorf("stats report %d sampled intervals, want at least one per variant: %+v", sampled, snap)
	}
	if snap.Winner == "" {
		t.Errorf("no winner after a 30000-iteration run: %+v", snap)
	}
	if live.Server["runs_ok"].(float64) < 1 {
		t.Errorf("server counters = %v", live.Server)
	}
}

// TestServerWarmRestart restarts the server against the same store and
// checks the sections come back warm.
func TestServerWarmRestart(t *testing.T) {
	st := store.NewMemStore()
	srv, ts := testServer(t, st)
	status, out := postRun(t, ts.URL, `{"section":"sort","iters":30000}`)
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %v", status, out)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if keys, _ := st.List(); len(keys) != 1 || keys[0].Section != "sort" {
		t.Fatalf("persisted keys after run + close = %v, want one sort record", keys)
	}

	_, ts2 := testServer(t, st)
	var live struct {
		Sections map[string]dynfb.Snapshot `json:"sections"`
	}
	getJSON(t, ts2.URL+"/stats", &live)
	if !live.Sections["sort"].WarmStarted {
		t.Errorf("restarted sort section not warm-started: %+v", live.Sections["sort"])
	}
	// The histogram section never ran, so it has no record and must have
	// cold-started — a partial store is fine.
	if live.Sections["histogram"].WarmStarted {
		t.Errorf("histogram warm-started without a record: %+v", live.Sections["histogram"])
	}
}

func TestRunOBLApp(t *testing.T) {
	_, ts := testServer(t, nil)
	status, out := postRun(t, ts.URL, `{"app":"string","procs":4,"policy":"original"}`)
	if status != http.StatusOK {
		t.Fatalf("obl run: status %d: %v", status, out)
	}
	if out["kind"] != "obl" || out["virtual_ns"].(float64) <= 0 {
		t.Errorf("obl response = %v", out)
	}
	if out["acquires"].(float64) <= 0 {
		t.Errorf("no lock activity reported: %v", out)
	}
	sections, ok := out["sections"].([]any)
	if !ok || len(sections) == 0 {
		t.Errorf("no per-section report: %v", out)
	}
}

func TestRunOBLAppCached(t *testing.T) {
	cache, err := simcache.New(simcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Workers:          2,
		TargetSampling:   time.Millisecond,
		TargetProduction: 50 * time.Millisecond,
		MaxConcurrent:    2,
		Cache:            cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := `{"app":"string","procs":4,"policy":"original"}`
	status, cold := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cold run: status %d: %v", status, cold)
	}
	if cold["cached"] != false {
		t.Errorf("first run reported cached: %v", cold["cached"])
	}
	status, warm := postRun(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("warm run: status %d: %v", status, warm)
	}
	if warm["cached"] != true {
		t.Errorf("repeat run not served from cache: %v", warm["cached"])
	}
	// Identical simulated outcome either way.
	for _, k := range []string{"virtual_ns", "acquires", "lock_ns", "wait_ns"} {
		if cold[k] != warm[k] {
			t.Errorf("%s differs: cold %v, warm %v", k, cold[k], warm[k])
		}
	}
	// A different configuration is a different content address.
	status, other := postRun(t, ts.URL, `{"app":"string","procs":2,"policy":"original"}`)
	if status != http.StatusOK {
		t.Fatalf("other run: status %d: %v", status, other)
	}
	if other["cached"] != false {
		t.Error("different procs count served from cache")
	}
	var stats struct {
		Simcache *simcache.Stats `json:"simcache"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Simcache == nil || stats.Simcache.Hits() != 1 || stats.Simcache.Puts != 2 {
		t.Errorf("/stats simcache = %+v, want 1 hit and 2 puts", stats.Simcache)
	}
}

// TestRunOBLAppPerturbed exercises the perturbation path of /run: a named
// scenario and an inline schedule both apply to the simulated machine (the
// inline one changes the virtual outcome), the response labels the
// schedule and reports per-section adaptation events, and /stats carries
// the most recent run's events.
func TestRunOBLAppPerturbed(t *testing.T) {
	_, ts := testServer(t, nil)
	base := `{"app":"water","procs":4,"policy":"dynamic"}`
	status, plain := postRun(t, ts.URL, base)
	if status != http.StatusOK {
		t.Fatalf("base run: status %d: %v", status, plain)
	}
	if plain["perturb"] != "" {
		t.Errorf("unperturbed run labeled %q", plain["perturb"])
	}

	status, named := postRun(t, ts.URL, `{"app":"water","procs":4,"policy":"dynamic","perturb":"crossover"}`)
	if status != http.StatusOK {
		t.Fatalf("named scenario run: status %d: %v", status, named)
	}
	if named["perturb"] != "crossover" {
		t.Errorf("scenario label = %v, want crossover", named["perturb"])
	}

	// An aggressive step at 1ms: 20x acquire/release cost must move the
	// virtual outcome of the same program.
	inline := `{"app":"water","procs":4,"policy":"dynamic","schedule":{"changes":[{"at_ns":1000000,"acquire_milli":20000,"release_milli":20000}]}}`
	status, custom := postRun(t, ts.URL, inline)
	if status != http.StatusOK {
		t.Fatalf("inline schedule run: status %d: %v", status, custom)
	}
	if custom["perturb"] != "custom" {
		t.Errorf("inline schedule label = %v, want custom", custom["perturb"])
	}
	if custom["virtual_ns"] == plain["virtual_ns"] {
		t.Errorf("perturbed run reported the unperturbed virtual time %v", plain["virtual_ns"])
	}

	// Dynamic runs report their controller's adaptation events per section.
	sections, ok := custom["sections"].([]any)
	if !ok || len(sections) == 0 {
		t.Fatalf("no per-section report: %v", custom)
	}
	events := 0
	for _, raw := range sections {
		sec := raw.(map[string]any)
		if sw, ok := sec["switches"].([]any); ok {
			events += len(sw)
		}
	}
	if events == 0 {
		t.Errorf("dynamic run reported no adaptation events: %v", custom)
	}

	var live struct {
		Adaptations *adaptRecordJSON `json:"adaptations"`
	}
	getJSON(t, ts.URL+"/stats", &live)
	if live.Adaptations == nil || live.Adaptations.App != "water" || len(live.Adaptations.Sections) == 0 {
		t.Errorf("/stats adaptations = %+v", live.Adaptations)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, nil)
	cases := []struct {
		body   string
		status int
		errHas string // what the error must mention
	}{
		{`{}`, http.StatusBadRequest, ""},
		{`{"section":"sort","app":"water"}`, http.StatusBadRequest, ""},
		{`{"section":"nope"}`, http.StatusNotFound, ""},
		{`{"app":"nope"}`, http.StatusNotFound, ""},
		{`{"section":"sort","iters":-5}`, http.StatusBadRequest, ""},
		{`{"section":"sort","params":{"bogus":true}}`, http.StatusBadRequest, ""},
		{`{"section":"sort","params":{"shuffled":"yes"}}`, http.StatusBadRequest, ""},
		{`{"app":"water","procs":1000}`, http.StatusBadRequest, ""},
		{`{"app":"water","policy":"nope"}`, http.StatusBadRequest, "original bounded aggressive"},
		{`{"app":"water","params":{"nmol":1.5}}`, http.StatusBadRequest, ""},
		// 2^53+1 and its negative: float64 reads them as ±2^53.
		{`{"app":"water","params":{"nmol":9007199254740993}}`, http.StatusBadRequest, "wants an integer"},
		{`{"app":"water","params":{"nmol":-9007199254740993}}`, http.StatusBadRequest, "wants an integer"},
		// Finite but absurd sizes reached the VM's make, whose panic only
		// net/http's recovery answered: the client saw its connection
		// dropped with no status.
		{`{"app":"water","params":{"nmol":1e15}}`, http.StatusBadRequest, "exceeds its bound 8192"},
		{`{"app":"string","params":{"nrays":9007199254740991}}`, http.StatusBadRequest, "exceeds its bound 65536"},
		// A parameter the program does not declare: Barnes-Hut's, and a typo.
		{`{"app":"water","params":{"nbodies":64}}`, http.StatusBadRequest, "energydepth nmol nsteps serialwork"},
		{`{"app":"water","params":{"nmoll":12}}`, http.StatusBadRequest, `"nmoll"`},
		{`{"unknown_field":1}`, http.StatusBadRequest, ""},
		{`{"section":"sort","perturb":"crossover"}`, http.StatusBadRequest, ""},
		// A field of the other request kind is refused, not ignored.
		{`{"section":"sort","policy":"heapsort"}`, http.StatusBadRequest, "OBL app runs only"},
		{`{"section":"sort","procs":4}`, http.StatusBadRequest, "OBL app runs only"},
		{`{"app":"water","iters":1000}`, http.StatusBadRequest, "native sections only"},
		{`{"app":"water","perturb":"nope"}`, http.StatusBadRequest, ""},
		{`{"app":"water","perturb":"crossover","schedule":{"changes":[]}}`, http.StatusBadRequest, ""},
		{`{"app":"water","schedule":{"changes":[{"at_ns":0,"acquire_milli":2000}]}}`, http.StatusBadRequest, ""},
		// A 1ns grid under a 2ms ramp asks for two million epochs.
		{`{"app":"water","procs":2,"policy":"bounded","schedule":{"resolution_ns":1,"changes":[{"at_ns":1,"ramp_for_ns":2000000,"acquire_milli":5000}]}}`, http.StatusBadRequest, "bad perturbation schedule"},
		// Anything but white space after the request object.
		{`{"app":"string","procs":2} {"app":"string","procs":2}`, http.StatusBadRequest, "after the request object"},
		{`{"app":"string","procs":2}}`, http.StatusBadRequest, "after the request object"},
		{`{"app":"string","procs":2}]`, http.StatusBadRequest, "after the request object"},
		{`{"app":"string","procs":2} x`, http.StatusBadRequest, "after the request object"},
		{`{"app":"string","procs":2}` + "\n \t\r\n", http.StatusOK, ""},
	}
	for _, c := range cases {
		status, out := postRun(t, ts.URL, c.body)
		if status != c.status {
			t.Errorf("%s: status %d (%v), want %d", c.body, status, out, c.status)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.body, msg, c.errHas)
		}
	}
}
