package fleet

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestRunDemo runs the full fleet scenario in-process: cold discovery,
// live warm start, boot warm start, tenant isolation, metrics scrapes,
// and clean drains. It is the same path cmd/dfload and the CI smoke job
// exercise.
func TestRunDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet demo drives real load; skipped in -short")
	}
	dir := t.TempDir()
	report, err := RunDemo(context.Background(), DemoConfig{
		Replicas:   3,
		Section:    "sort",
		Iters:      2000,
		QPS:        100,
		Duration:   20 * time.Second, // per-phase bound; convergence ends phases early
		Sampling:   2 * time.Millisecond,
		Production: 300 * time.Millisecond,
		MetricsDir: dir,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("RunDemo: %v (report %+v)", err, report)
	}
	if len(report.Replicas) != 3 {
		t.Fatalf("got %d replica reports, want 3", len(report.Replicas))
	}
	cold := report.Replicas[0]
	if cold.WarmStartHits != 0 {
		t.Errorf("cold replica warm-started (hits=%d)", cold.WarmStartHits)
	}
	if cold.Winner == "" {
		t.Error("cold replica has no winner")
	}
	for _, rr := range report.Replicas[1:] {
		if rr.WarmStartHits == 0 {
			t.Errorf("replica %s: no warm-start hits", rr.Name)
		}
		if rr.Winner != cold.Winner {
			t.Errorf("replica %s: winner %q, fleet winner %q", rr.Name, rr.Winner, cold.Winner)
		}
		if rr.SampledAtWinner >= cold.SampledAtWinner {
			t.Errorf("replica %s: sampled %d intervals, cold sampled %d — warm start bought nothing",
				rr.Name, rr.SampledAtWinner, cold.SampledAtWinner)
		}
	}
	if report.Isolated.WarmStartHits != 0 {
		t.Errorf("off-tenant replica warm-started (hits=%d)", report.Isolated.WarmStartHits)
	}

	// The scrapes must exist and carry the fleet's evidence.
	for _, name := range []string{"hub", "replica-1", "replica-2", "replica-3", "isolated"} {
		body, err := os.ReadFile(filepath.Join(dir, name+".prom"))
		if err != nil {
			t.Fatalf("missing metrics scrape: %v", err)
		}
		if name == "hub" {
			if !strings.Contains(string(body), "dfstored_pushes_total") {
				t.Errorf("hub scrape lacks dfstored_pushes_total")
			}
			continue
		}
		if !strings.Contains(string(body), "dfserved_warm_start_hits_total") {
			t.Errorf("%s scrape lacks dfserved_warm_start_hits_total", name)
		}
	}
}

// TestDrainFinishesInFlightRun drains a replica while an OBL run of about
// two seconds is in flight: the run must be answered 200, and Drain must
// return only after it.
func TestDrainFinishesInFlightRun(t *testing.T) {
	if testing.Short() {
		t.Skip("a multi-second simulated run; skipped in -short")
	}
	r, err := StartReplica(ReplicaConfig{Name: "drain", Workers: 1, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		err    error
		at     time.Time
	}
	got := make(chan reply, 1)
	go func() {
		body := `{"app":"barneshut","procs":8,"params":{"nbodies":16384,"npasses":2,"listlen":64}}`
		resp, err := http.Post(r.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			got <- reply{err: err, at: time.Now()}
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- reply{status: resp.StatusCode, err: err, at: time.Now()}
	}()
	// The run is in flight once the replica counts a request beyond this
	// loop's own /healthz polls.
	polls := int64(0)
	for {
		var health struct{ Requests int64 }
		if err := getJSON(context.Background(), r.URL+"/healthz", &health); err != nil {
			t.Fatal(err)
		}
		polls++
		if health.Requests > polls {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, done := context.WithTimeout(context.Background(), 2*time.Minute)
	defer done()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained := time.Now()
	rep := <-got
	if rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("in-flight run: status %d, err %v; want 200", rep.status, rep.err)
	}
	if rep.at.Sub(drained) > time.Second {
		t.Errorf("run answered %v after Drain returned", rep.at.Sub(drained))
	}
}

// TestHubCloseAnswersParkedWatch closes a hub with a watch parked on it:
// the watch is answered 200 as if its wait had expired, and Close returns
// promptly instead of waiting out the long-poll.
func TestHubCloseAnswersParkedWatch(t *testing.T) {
	h, err := StartHub("", nil, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(h.URL + "/v1/watch?since=0&wait=20s")
		if err != nil {
			got <- reply{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{status: resp.StatusCode, body: string(body), err: err}
	}()
	if err := WaitFor(context.Background(), 5*time.Second, 5*time.Millisecond, func() bool {
		m, err := ScrapeMetrics(context.Background(), h.URL)
		return err == nil && strings.Contains(string(m), "dfstored_watch_requests_total 1\n")
	}); err != nil {
		t.Fatalf("watch never reached the hub: %v", err)
	}
	start := time.Now()
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with a watch parked, want under 1s", d)
	}
	rep := <-got
	if rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("parked watch: status %d, err %v; want 200", rep.status, rep.err)
	}
	if want := `{"seq":0,"records":null}` + "\n"; rep.body != want {
		t.Errorf("parked watch body %q, want the expired-wait body %q", rep.body, want)
	}
}

// TestDriveAgainstReplica exercises the external-target mode: a lone
// replica with no hub, driven directly.
func TestDriveAgainstReplica(t *testing.T) {
	r, err := StartReplica(ReplicaConfig{
		Name:           "solo",
		Workers:        2,
		TargetSampling: 2 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Past 5 s: the driver's transport can leave behind a connection
		// that never carried a request (a dial that lost the race to a
		// freed connection), and http.Server.Shutdown closes one of those
		// only once it is 5 s old.
		ctx, done := context.WithTimeout(context.Background(), 15*time.Second)
		defer done()
		if err := r.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	rep := Drive(context.Background(), r.URL, LoadConfig{
		Section: "sort", Iters: 1000, QPS: 200, Duration: 2 * time.Second,
		Until: func() bool {
			p, err := Probe(context.Background(), r.URL)
			return err == nil && p.Sections["sort"].Winner != ""
		},
	})
	if rep.Requests == 0 {
		t.Fatal("no requests sent")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d requests failed", rep.Errors, rep.Requests)
	}
	p, err := Probe(context.Background(), r.URL)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sections["sort"].Winner == "" {
		t.Error("no winner after sustained load")
	}
}

// TestDriveRateBounds: a rate no ticker interval represents drives until
// the deadline without a panic (NaN takes the default rate; the fastest
// interval is 1 ns). The target refuses connections, so nothing is served.
// cmd/dfload's tests cover a rate too slow to represent.
func TestDriveRateBounds(t *testing.T) {
	for _, qps := range []float64{math.NaN(), math.Inf(1), 1e12} {
		Drive(context.Background(), "http://127.0.0.1:1", LoadConfig{QPS: qps, Duration: 5 * time.Millisecond, Concurrency: 1})
	}
}
