package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/dynfb/store"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line whose name (and
// optional labels) match prefix exactly up to the last space.
func metricValue(t *testing.T, body, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok && name == prefix {
			return val
		}
	}
	t.Fatalf("metric %q not in scrape:\n%s", prefix, body)
	return ""
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)

	body := scrape(t, ts.URL)
	// The scrape itself is a request, so the counter is already moving;
	// just pin the families that must exist before any workload.
	before := metricValue(t, body, "dfserved_requests_total")
	if !strings.Contains(body, "build_info{") {
		t.Error("no build_info in scrape")
	}
	for _, name := range []string{"dfserved_requests_total", "dfserved_runs_ok_total",
		"dfserved_runs_err_total", "dfserved_warm_start_hits_total"} {
		if !strings.Contains(body, "# TYPE "+name+" counter\n") {
			t.Errorf("%s is not exposed as a counter", name)
		}
	}
	if metricValue(t, body, "dfserved_runs_ok_total") != "0" {
		t.Error("runs counter nonzero before any run")
	}

	status, _ := postRun(t, ts.URL, `{"section":"sort","iters":20000}`)
	if status != http.StatusOK {
		t.Fatalf("run failed: status %d", status)
	}

	body = scrape(t, ts.URL)
	// The run incremented the request and success counters (the /metrics
	// scrape itself is also a request).
	if metricValue(t, body, "dfserved_runs_ok_total") != "1" {
		t.Error("runs_ok_total != 1 after one successful run")
	}
	if after := metricValue(t, body, "dfserved_requests_total"); after == before {
		t.Errorf("requests_total stuck at %s after traffic", after)
	}
	if metricValue(t, body, "dfserved_run_seconds_count") != "1" {
		t.Error("run_seconds histogram did not observe the run")
	}
	if !strings.Contains(body, `dfserved_section_switches{section="sort"}`) {
		t.Error("no per-section switch gauge")
	}
	if !strings.Contains(body, "dfserved_warm_start_hits_total 0") {
		t.Error("warm-start hits missing or nonzero on a cold server")
	}
}

func TestMetricsStoreLinkFamilies(t *testing.T) {
	// Only a replicated backend exposes the sync-link families.
	srv, err := New(Config{
		Workers:          1,
		TargetSampling:   time.Millisecond,
		TargetProduction: 50 * time.Millisecond,
		Backend:          store.NewMemStore(),
		Tenant:           "t1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if strings.Contains(scrape(t, ts.URL), "dfserved_store_connected") {
		t.Error("local backend advertises a hub link")
	}
}

func TestDrainMarksHealthz(t *testing.T) {
	srv, ts := testServer(t, store.NewMemStore())
	status, _ := postRun(t, ts.URL, `{"section":"sort","iters":20000}`)
	if status != http.StatusOK {
		t.Fatalf("run failed: status %d", status)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"draining"`) {
		t.Errorf("healthz after Close = %s, want draining status", body)
	}
}

// TestBackendBootWarmStart wires a Server to a shared Backend with tenant
// namespacing: knowledge a first server learned must warm-start a second
// one, and a third server under a different tenant must stay cold.
func TestBackendBootWarmStart(t *testing.T) {
	backend := store.NewMemStore()
	mk := func(tenant string) *Server {
		srv, err := New(Config{
			Workers:          2,
			TargetSampling:   time.Millisecond,
			TargetProduction: 50 * time.Millisecond,
			Backend:          backend,
			Tenant:           tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	first := mk("alpha")
	ts := httptest.NewServer(first.Handler())
	defer ts.Close()
	status, _ := postRun(t, ts.URL, `{"section":"sort","iters":20000}`)
	if status != http.StatusOK {
		t.Fatalf("run failed: status %d", status)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := mk("alpha")
	defer second.Close()
	if second.WarmStartHits() == 0 {
		t.Error("second server under the same tenant did not warm-start")
	}

	other := mk("beta")
	defer other.Close()
	if other.WarmStartHits() != 0 {
		t.Errorf("tenant beta warm-started from alpha's records (hits=%d)",
			other.WarmStartHits())
	}
}
