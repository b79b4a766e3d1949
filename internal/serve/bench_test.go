package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestRunHitAllocs holds the memory-tier hit to its allocation count. Of
// the 46 measured (go1.24.0) about 18 are the test's own request and
// recorder, 12 CacheKey and 8 decoding the request; rendering the reply
// allocates nothing. The handler allocated 107 when it built a map and
// encoded it with SetIndent; the ceiling leaves room for another Go
// version's net/http and encoding/json.
func TestRunHitAllocs(t *testing.T) {
	h := hitHandler(t, 0)
	const ceiling = 60
	if got := testing.AllocsPerRun(200, func() { postHit(h) }); got > ceiling {
		t.Errorf("a memory-tier /run hit allocates %.0f times, ceiling %d", got, ceiling)
	}
}
