package interp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/clonecheck"
	"repro/internal/obl/ir"
	"repro/internal/obl/polgen"
	"repro/internal/perturb"
)

// sharedByDesign lists the slice and map fields a clone may share with
// its original, each with the reason sharing is safe. Pointer fields are
// never compared: a clone shares every pointer by design — the *ir and
// *vm code, the runtime, the *sectionRun a worker holds, locks, heap
// objects — which is how restore keeps pointer identity.
var sharedByDesign = map[string]string{
	"SectionStats.VersionLabels": "set once when the section's stats are created, never written again",
	"vmTask.worker.flags":        "a version's flag vector (or the run's base flags): immutable program data",
}

// TestCloneCoversEveryField holds each checkpointed type's clone to its
// struct: with every field filled, no slice or map of the clone may share
// storage with the original unless sharedByDesign says why it can. A field
// added to one of these types and not deep-copied by its clone fails here,
// by name, instead of silently escaping every checkpoint.
func TestCloneCoversEveryField(t *testing.T) {
	got := slices.Concat(
		clonecheck.Shared((*sectionRun).clone),
		clonecheck.Shared((*SectionStats).clone),
		clonecheck.Shared((*vmTask).clone),
		clonecheck.Shared((*Object).clone),
	)
	for _, path := range got {
		if _, ok := sharedByDesign[path]; !ok {
			t.Errorf("%s: the clone shares it with the original; deep-copy it in clone, or add it to sharedByDesign with the reason", path)
		}
	}
	for path := range sharedByDesign {
		if !slices.Contains(got, path) {
			t.Errorf("%s is listed as shared by design but no clone shares it; drop it from the list", path)
		}
	}
}

// TestCheckpointAnywhere checkpoints and restores on a grid of claim pairs
// spread over whole runs — early to late, across section executions, and
// for a chunked version in the middle of a processor's chunk — and
// requires every restored run to encode byte-identically to the
// uninterrupted one. The programs cover the three applications'
// multi-version builds under two policies at 4 processors, plus one
// generated version that claims iterations in chunks of 4. The runs take
// uncontended releases ahead, as production runs do. A flag-dispatched
// build runs on the reference oracle, which keeps no snapshot state: its
// rows check that a checkpoint hook is refused and the plain run is not.
// -short keeps one application and a coarser grid.
func TestCheckpointAnywhere(t *testing.T) {
	type prog struct {
		name   string
		p      *ir.Program
		policy string
		params map[string]int64
	}
	var progs []prog
	names := apps.Names
	if testing.Short() {
		names = []string{apps.NameWater}
	}
	for _, name := range names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		params := apps.TestParams(name)
		if name == apps.NameString {
			params["nrounds"] = 2 // one round is one section execution
		}
		for _, policy := range []string{"original", "aggressive"} {
			progs = append(progs,
				prog{name + "/multi/" + policy, c.Parallel, policy, params},
				prog{name + "/flagged/" + policy, c.Flagged, policy, params})
		}
	}
	chunked := polgen.Spec{Lift: true, Chunk: 4}
	c, err := apps.CompileWithSpecs(apps.NameBarnesHut, []polgen.Spec{chunked})
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, prog{"barneshut/multi/" + chunked.Name(), c.Parallel, chunked.Name(), apps.TestParams(apps.NameBarnesHut)})

	fractions := []int64{1, 4, 8, 12, 15} // sixteenths of the run's claims
	if testing.Short() {
		fractions = []int64{2, 8, 14}
	}
	for _, pg := range progs {
		t.Run(pg.name, func(t *testing.T) {
			opts := Options{Procs: 4, Policy: pg.policy, Params: pg.params}
			run := func(h *ckHook) []byte {
				t.Helper()
				o := opts
				o.ckHook = h
				res, err := Run(pg.p, o)
				if err != nil {
					t.Fatal(err)
				}
				return encodeRes(t, res)
			}
			want := run(nil)
			if pg.p.NumFlagSites > 0 {
				o := opts
				o.ckHook = &ckHook{}
				if _, err := Run(pg.p, o); err == nil || !strings.Contains(err.Error(), "no snapshot state") {
					t.Fatalf("checkpoint hook on a flag-dispatch program: got %v, want the oracle's refusal", err)
				}
				return
			}
			count := &ckHook{}
			if !bytes.Equal(run(count), want) {
				t.Fatal("an idle checkpoint hook changed the result")
			}

			// Snapshot-only runs at each grid point: the snapshot must not
			// perturb the run, and it names the section execution and the
			// chunk state there.
			type point struct {
				claim    int64
				exec     [2]int // section ID, executions finished before this one
				midChunk bool
			}
			var pts []point
			for _, f := range fractions {
				h := &ckHook{ckAt: count.claims*f/16 + 1}
				if !bytes.Equal(run(h), want) {
					t.Fatalf("snapshot at claim %d changed the result", h.ckAt)
				}
				s := h.snap
				id := s.run.sec.ID
				pts = append(pts, point{h.ckAt, [2]int{id, len(s.stats[id].Executions)}, slices.ContainsFunc(s.run.chunkRem, func(r int64) bool { return r > 0 })})
			}

			var crossed, midChunk bool
			for i, a := range pts {
				// Restore at once, and at every later grid point.
				pairs := [][2]int64{{a.claim, a.claim + 1}}
				for _, b := range pts[i+1:] {
					pairs = append(pairs, [2]int64{a.claim, b.claim})
					crossed = crossed || a.exec != b.exec
				}
				midChunk = midChunk || a.midChunk
				for _, pr := range pairs {
					h := &ckHook{ckAt: pr[0], restoreAt: pr[1]}
					got := run(h)
					if !h.restored {
						t.Fatalf("ck=%d,restore=%d: restore point never reached", pr[0], pr[1])
					}
					if !bytes.Equal(got, want) {
						t.Errorf("ck=%d,restore=%d: restored run differs from the uninterrupted run", pr[0], pr[1])
					}
				}
			}
			if !crossed {
				t.Errorf("no claim pair spans two section executions (points %v)", pts)
			}
			if pg.policy == chunked.Name() && !midChunk {
				t.Errorf("no checkpoint fell inside a processor's chunk (points %v)", pts)
			}
		})
	}
}

func encodeRes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointHookByteIdentical drives the full-runtime checkpoint:
// snapshot at one claim point, keep executing, restore, and require the
// final Result to encode identically to an uninterrupted run — with and
// without environment perturbation.
func TestCheckpointHookByteIdentical(t *testing.T) {
	scenarios := perturb.ScenarioNames()
	if len(scenarios) == 0 {
		t.Fatal("no perturbation scenarios registered")
	}
	sched, ok := perturb.Scenario(scenarios[0])
	if !ok {
		t.Fatal("scenario lookup failed")
	}
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	for _, perturbed := range []bool{false, true} {
		opts := Options{
			Procs: 4, Policy: "original",
			Params: apps.TestParams(apps.NameBarnesHut),
		}
		if perturbed {
			opts.Perturb = sched
		}
		want, err := Run(c.Parallel, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := encodeRes(t, want)
		// 10→60 stays inside the first section; 60→130 crosses into a
		// later section execution before restoring.
		for _, pts := range [][2]int64{{10, 60}, {60, 130}} {
			label := fmt.Sprintf("perturbed=%v/ck=%d,restore=%d", perturbed, pts[0], pts[1])
			hooked := opts
			hooked.ckHook = &ckHook{ckAt: pts[0], restoreAt: pts[1]}
			got, err := Run(c.Parallel, hooked)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !hooked.ckHook.restored {
				t.Fatalf("%s: restore point never reached", label)
			}
			if !bytes.Equal(wantBytes, encodeRes(t, got)) {
				t.Fatalf("%s: restored run result differs from uninterrupted run", label)
			}
		}
	}
}

// TestCheckpointHookRefusals pins the two places a checkpoint-hooked run
// is turned away: the step interpreter keeps no snapshot state, so an
// oracle run is refused with the reason it is one, default engine or not,
// and a hooked run never gets a cache key.
func TestCheckpointHookRefusals(t *testing.T) {
	c, err := apps.Compile(apps.NameWater)
	if err != nil {
		t.Fatal(err)
	}
	calc := compile(t, calcSrc).Serial // calls sqrt, which has no unboxed form
	for _, row := range []struct {
		prog   *ir.Program
		opts   Options
		reason string
	}{
		{c.Parallel, Options{Policy: "bounded", Engine: EngineInterp}, "engine interp"},
		{c.Parallel, Options{Policy: PolicyDynamic, AsyncSwitch: true}, "asynchronous switching"},
		{calc, Options{}, "boxed extern sqrt"},
	} {
		o := row.opts
		o.Procs, o.ckHook = 4, &ckHook{}
		if _, err := Run(row.prog, o); err == nil || !strings.Contains(err.Error(), row.reason) {
			t.Errorf("checkpoint-hooked run with %s: got %v, want the oracle's refusal naming it", row.reason, err)
		}
	}
	if _, ok := CacheKey(c.Parallel, Options{Procs: 4, Policy: "bounded", ckHook: &ckHook{}}); ok {
		t.Error("checkpoint-hooked run got a cache key")
	}
	if _, ok := CacheKey(c.Parallel, Options{Procs: 4, Policy: "bounded"}); !ok {
		t.Error("plain run lost its cache key")
	}
}
