package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simcache"
)

// hitBody is dfperf's serve probe request: a dynamic Water run, whose reply
// carries two sections with their adaptation events.
const hitBody = `{"app":"water","policy":"dynamic","procs":8}`

// hitHandler returns a handler whose cache already holds hitBody's result,
// in the memory tier or (memEntries < 0) on disk only.
func hitHandler(tb testing.TB, memEntries int) http.Handler {
	tb.Helper()
	cfg := simcache.Config{MemEntries: memEntries}
	if memEntries < 0 {
		cfg.Dir = tb.TempDir()
	}
	cache, err := simcache.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	if rec := postHit(h); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": false`) {
		tb.Fatalf("filling the cache: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postHit(h); !strings.Contains(rec.Body.String(), `"cached": true`) {
		tb.Fatalf("second request missed the cache: %s", rec.Body)
	}
	return h
}

func postHit(h http.Handler) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(hitBody)))
	return rec
}

// BenchmarkRunHit is the cached /run handler with no socket under it: the
// whole of what this package adds to a hit, per cache tier.
func BenchmarkRunHit(b *testing.B) {
	for _, tier := range []struct {
		name       string
		memEntries int
	}{{"mem", 0}, {"disk", -1}} {
		b.Run(tier.name, func(b *testing.B) {
			h := hitHandler(b, tier.memEntries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postHit(h)
			}
		})
	}
}

// TestRunHitAllocs holds a hit to its allocation count, per tier. Of the 23
// measured for the memory tier (go1.24.0) 18 are the test's own request and
// recorder; the handler makes 5: the body's MaxBytesReader, the run's
// parameter map (2), the Content-Type entry in the header map and the cache
// key's string. Decoding the request and rendering the reply allocate
// nothing here. The hit made 46 before: 13 more in CacheKey, which hashed
// through a hash.Hash, 8 decoding the request with encoding/json, the
// Content-Type value's slice and a parameter-bounds map built per request.
// It made 107 when the reply was a map encoded with SetIndent. The disk tier adds the
// file read and the decoded record, 43 in all (66 before, 104 while entries
// were JSON). Each ceiling leaves room for another Go version's net/http,
// os and encoding/json.
func TestRunHitAllocs(t *testing.T) {
	for _, tier := range []struct {
		name       string
		memEntries int
		ceiling    float64
	}{{"memory", 0, 37}, {"disk", -1, 57}} {
		h := hitHandler(t, tier.memEntries)
		if got := testing.AllocsPerRun(200, func() { postHit(h) }); got > tier.ceiling {
			t.Errorf("a %s-tier /run hit allocates %.0f times, ceiling %.0f", tier.name, got, tier.ceiling)
		} else {
			t.Logf("%s tier: %.0f allocations a hit", tier.name, got)
		}
	}
}

// TestCachedRunTakesNoSlot fills every simulation slot and posts with a
// short deadline: a cached cell is answered all the same, an uncached one
// waits for a slot it never gets.
func TestCachedRunTakesNoSlot(t *testing.T) {
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: cache, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if rec := postHit(h); rec.Code != http.StatusOK {
		t.Fatalf("filling the cache: status %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	post := func(body string) *httptest.ResponseRecorder {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	if rec := post(hitBody); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
		t.Errorf("cached cell with every slot busy: status %d: %s", rec.Code, rec.Body)
	}
	rec := post(`{"app":"water","policy":"original","procs":8}`)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "request canceled while queued") {
		t.Errorf("uncached cell with every slot busy: status %d: %s", rec.Code, rec.Body)
	}
}
