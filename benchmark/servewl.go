package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/simcache"
	"repro/internal/simmach"
	"repro/oblc"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// listener is an http.Server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + lis.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(lis) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// pipeListener serves connections made in memory: each dial hands the
// server one end of a net.Pipe and the client the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// listenPipe is listen without the kernel: the whole net/http server and
// client run, over connections that are channels. The serve workload uses
// it because loopback TCP let more of the host's noise in: in a noisy hour
// a window's passes alternated between 7 k and 12 k op/s from one second to
// the next over TCP and stayed within 11.5-14.8 k over pipes, run
// alternately (the kernel path takes timer interrupts, softirqs and VM
// exits that the Go code does not). TCP's own share of a request is 8 us of
// 53, and no code of this repository is in it.
func listenPipe(h http.Handler) (*listener, func(ctx context.Context, network, addr string) (net.Conn, error)) {
	pl := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	l := &listener{url: "http://dfperf", srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(pl) // returns http.ErrServerClosed after stop
	}()
	return l, pl.dial
}

// stop shuts the server down and waits for its goroutine.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// Request sizes: small enough that set-up can simulate every distinct body
// twice (once through the server to fill the cache, once directly under the
// reference engine), since the window itself never simulates.
var serveParams = map[string]map[string]int64{
	apps.NameBarnesHut: {"nbodies": 24, "listlen": 8, "npasses": 1},
	apps.NameWater:     {"nmol": 12, "nsteps": 1},
	apps.NameString:    {"gridside": 8, "nrays": 24, "pathlen": 8, "nrounds": 1},
}

// serveBodies is 256 rather than thousands because filling the disk tier is
// one file creation per body, and on the calibration host's ext4 those cost
// 0.2-0.9 ms each depending on what the journal is doing: at 1024 bodies
// they were a third of set-up and moved setup_s from 0.8 s to 1.5 s.
const (
	serveBodies  = 256 // distinct request bodies
	serveMemTier = 64  // simcache memory tier: the working set is 4x it
	// serveDraws is the length of the op list, one pass: ~70 ms, so that the
	// window's best decile can pick out quiet stretches that short, and
	// still 51 samples beyond each pass's p95.
	serveDraws = 1024
)

// reply is what the harness checks of a /run response.
type reply struct {
	Cached    bool     `json:"cached"`
	VirtualNS int64    `json:"virtual_ns"`
	Acquires  int64    `json:"acquires"`
	Output    []string `json:"output"`
}

type serveBody struct {
	body []byte
	want reply
}

type serveWorld struct {
	dir    string
	cache  *simcache.Cache
	server *serve.Server
	lis    *listener
	client *http.Client
	bodies []serveBody
	filled simcache.Stats // cache traffic at the end of set-up
	tr     atomic.Pointer[tracer]
}

// spanHeader carries the client op's span ids to the handler wrapper, so a
// handler span hangs under the op that caused it.
const spanHeader = "X-Dfperf-Span"

// traced wraps a handler with a span per request. tr is read per request:
// the traced and untraced windows share one server.
func traced(name string, h http.Handler, tr func() *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		var op, parent int32 = 0, -1
		if v := r.Header.Get(spanHeader); v != "" {
			fmt.Sscanf(v, "%d/%d", &op, &parent)
		}
		id := t.begin(name, parent, op)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

func serveSetup(cfg config) (*world, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-*")
	if err != nil {
		return nil, err
	}
	n, memTier := serveBodies, serveMemTier
	if cfg.small {
		n, memTier = 48, 12
	}
	sw := &serveWorld{dir: dir}
	fail := func(err error) (*world, error) {
		sw.close()
		return nil, err
	}
	if sw.cache, err = simcache.New(simcache.Config{Dir: dir, MemEntries: memTier}); err != nil {
		return fail(err)
	}
	if sw.server, err = serve.New(serve.Config{Cache: sw.cache, Logger: quiet}); err != nil {
		return fail(err)
	}
	handler := sw.server.Handler()
	if cfg.tamper {
		handler = tamperRun(handler)
	}
	var dial func(ctx context.Context, network, addr string) (net.Conn, error)
	sw.lis, dial = listenPipe(traced("serve.handler", handler, sw.tr.Load))
	sw.client = &http.Client{Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}

	r := rand.New(rand.NewSource(cfg.seed))
	if sw.bodies, err = makeBodies(r, n); err != nil {
		return fail(err)
	}
	// Fill: every body once through the server (a miss: simulate and put).
	for i := range sw.bodies {
		got, err := sw.post(sw.bodies[i].body, scope{})
		if err != nil {
			return fail(fmt.Errorf("filling the cache: %w", err))
		}
		if got.Cached {
			return fail(fmt.Errorf("filling the cache: body %d was already cached: bodies are not distinct", i))
		}
	}
	sw.filled = sw.cache.Stats()

	// Zipf rank i is body i: makeBodies interleaves apps and policies, so the
	// hot ranks hold the same mix of response shapes whatever the seed (a
	// seeded permutation moved ops_per_s by 9 % between seeds).
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed*131)), 1.1, 1, uint64(n-1))
	ops := make([]op, serveDraws)
	for i := range ops {
		b := &sw.bodies[zipf.Uint64()]
		ops[i] = op{name: "run", run: func(sc scope) (func() error, error) {
			got, err := sw.post(b.body, sc)
			if err != nil {
				return nil, err
			}
			return func() error {
				if !got.Cached {
					return fmt.Errorf("response not served from the cache")
				}
				got.Cached = false
				if !reflect.DeepEqual(got, b.want) {
					return fmt.Errorf("response %+v differs from a direct run %+v", got, b.want)
				}
				return nil
			}, nil
		}}
	}
	return &world{ops: ops, onWindow: sw.tr.Store, layer: sw.layer, close: sw.close}, nil
}

// makeBodies builds n distinct /run bodies (3 apps x 5 policies x procs
// 4/8/16 x serialwork variants) and, for each, the reply a direct
// reference-engine run of the same request gives. The options mirror what
// serve derives from a request: its default intervals over TestParams.
func makeBodies(r *rand.Rand, n int) ([]serveBody, error) {
	policies := append(oblc.Policies(), interp.PolicyDynamic, "serial")
	compiled := map[string]*oblc.Compiled{}
	for _, app := range apps.Names {
		c, err := apps.Compile(app)
		if err != nil {
			return nil, err
		}
		compiled[app] = c
	}
	base := int64(2000 + r.Intn(1000))
	out := make([]serveBody, 0, n)
	for i := 0; len(out) < n; i++ {
		app := apps.Names[i%3]
		policy := policies[(i/3)%len(policies)]
		procs := []int{4, 8, 16}[(i/15)%3]
		// One serialwork value per (procs, variant) pair: "serial" ignores
		// procs, so procs alone would not make its bodies distinct.
		serialwork := base + int64(i/15)*7
		params := map[string]any{"serialwork": serialwork}
		run := apps.TestParams(app)
		run["serialwork"] = serialwork
		for k, v := range serveParams[app] {
			params[k], run[k] = v, v
		}
		body, err := json.Marshal(map[string]any{"app": app, "policy": policy, "procs": procs, "params": params})
		if err != nil {
			return nil, err
		}
		prog := compiled[app].Parallel
		opts := interp.Options{
			Procs: procs, Policy: policy, Params: run, Engine: interp.EngineInterp,
			TargetSampling: simmach.Time(5 * time.Millisecond), TargetProduction: simmach.Time(2 * time.Second),
		}
		if policy == "serial" {
			prog, opts.Policy, opts.Procs = compiled[app].Serial, "", 1
		}
		res, err := interp.Run(prog, opts)
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", body, err)
		}
		out = append(out, serveBody{body: body, want: reply{VirtualNS: int64(res.Time), Acquires: res.Counters.Acquires, Output: res.Output}})
	}
	return out, nil
}

// post sends one /run request and reads the whole reply.
func (sw *serveWorld) post(body []byte, sc scope) (reply, error) {
	var got reply
	req, err := http.NewRequest(http.MethodPost, sw.lis.url+"/run", bytes.NewReader(body))
	if err != nil {
		return got, err
	}
	if sc.tr != nil {
		req.Header.Set(spanHeader, strconv.Itoa(int(sc.op))+"/"+strconv.Itoa(int(sc.parent)))
	}
	resp, err := sw.client.Do(req)
	if err != nil {
		return got, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return got, err
	}
	if resp.StatusCode != http.StatusOK {
		return got, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return got, json.Unmarshal(data, &got)
}

func (sw *serveWorld) layer(st *windowStats, out metricSet) {
	now := sw.cache.Stats()
	mem, disk := now.MemHits-sw.filled.MemHits, now.DiskHits-sw.filled.DiskHits
	if total := mem + disk + now.Misses - sw.filled.Misses; total > 0 {
		out.set("simcache.mem_hit_share", float64(mem)/float64(total))
		out.set("simcache.disk_hit_share", float64(disk)/float64(total))
	}
	// What the op costs beyond the handler: the client and net/http.
	out.set("serve.http_overhead_us", out["span.op_self_us"].Value)
}

func (sw *serveWorld) close() {
	if sw.client != nil {
		sw.client.CloseIdleConnections()
	}
	if sw.lis != nil {
		sw.lis.stop()
	}
	if sw.server != nil {
		sw.server.Close()
	}
	os.RemoveAll(sw.dir)
}

// tamperRun rewrites the virtual time in every /run response, as a faulty
// serving path would; the self-test uses it to show the check fires.
func tamperRun(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &bodyRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		w.WriteHeader(max(rec.status, http.StatusOK))
		w.Write(bytes.Replace(rec.buf.Bytes(), []byte(`"virtual_ns": `), []byte(`"virtual_ns": 1`), 1))
	})
}

type bodyRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (b *bodyRecorder) WriteHeader(status int)      { b.status = status }
func (b *bodyRecorder) Write(p []byte) (int, error) { return b.buf.Write(p) }
