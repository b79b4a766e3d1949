package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/obl/ir"
)

// Fingerprint returns a stable, content-addressed identity for a compiled
// program: the hex SHA-256 of a canonical binary encoding of every part of
// the program that affects execution (code, costs, externs, classes,
// sections, policies, flags, parameters). Two programs with identical
// compiled content — even from different compiler invocations or processes
// — have the same fingerprint, which is what lets simulation results be
// cached across runs (internal/simcache).
//
// Programs are immutable after compilation, so the fingerprint is computed
// once per *ir.Program and memoized alongside the interpreter's other
// load-time preparation.
func Fingerprint(p *ir.Program) string {
	s := loadStateOf(p)
	s.fpOnce.Do(func() { s.fp = computeFingerprint(p) })
	return s.fp
}

// fpWriter streams canonical primitives into a hash. Every value is
// length- or tag-delimited, so distinct programs cannot collide by
// concatenation ambiguity.
type fpWriter struct {
	h   interface{ Write([]byte) (int, error) }
	buf [10]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.h.Write(w.buf[:8])
}

func (w *fpWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) boolean(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func computeFingerprint(p *ir.Program) string {
	h := sha256.New()
	w := &fpWriter{h: h}
	// v2: adds Version.Chunk (iteration-scheduling granularity).
	w.str("obl-program-v2")

	w.u64(uint64(len(p.ParamNames)))
	for _, name := range p.ParamNames {
		w.str(name)
		w.i64(p.Params[name])
	}
	// The full Params map is encoded again in sorted order, so defaults
	// not reachable through ParamNames still distinguish programs.
	w.u64(uint64(len(p.Params)))
	for _, name := range sortedFPKeys(p.Params) {
		w.str(name)
		w.i64(p.Params[name])
	}

	w.u64(uint64(len(p.Externs)))
	for _, e := range p.Externs {
		w.str(e.Name)
		w.i64(int64(e.NArgs))
		w.i64(e.Cost)
	}

	w.u64(uint64(len(p.Classes)))
	for _, c := range p.Classes {
		w.str(c.Name)
		w.u64(uint64(len(c.Fields)))
		for i, f := range c.Fields {
			w.str(f)
			w.i64(int64(c.FieldKinds[i]))
		}
	}

	w.u64(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		w.str(f.Name)
		w.str(f.Source)
		w.i64(int64(f.NParams))
		w.i64(int64(f.NRegs))
		w.u64(uint64(len(f.Code)))
		for _, in := range f.Code {
			w.u64(uint64(in.Op))
			w.i64(int64(in.Dst))
			w.i64(int64(in.A))
			w.i64(int64(in.B))
			w.i64(int64(in.C))
			w.i64(in.Imm)
			w.f64(in.F)
			w.u64(uint64(len(in.Args)))
			for _, r := range in.Args {
				w.i64(int64(r))
			}
		}
	}

	w.u64(uint64(len(p.Sections)))
	for _, s := range p.Sections {
		w.i64(int64(s.ID))
		w.str(s.Name)
		w.i64(int64(s.NCaptured))
		w.u64(uint64(len(s.Versions)))
		for _, v := range s.Versions {
			w.u64(uint64(len(v.Policies)))
			for _, pol := range v.Policies {
				w.str(pol)
			}
			w.i64(int64(v.FuncID))
			w.u64(uint64(len(v.Flags)))
			for _, fl := range v.Flags {
				w.boolean(fl)
			}
			w.i64(int64(v.Chunk))
		}
		for _, pol := range sortedFPKeys(s.PolicyVersion) {
			w.str(pol)
			w.i64(int64(s.PolicyVersion[pol]))
		}
	}

	w.u64(uint64(len(p.FlagPolicies)))
	for _, pol := range sortedFPKeys(p.FlagPolicies) {
		w.str(pol)
		flags := p.FlagPolicies[pol]
		w.u64(uint64(len(flags)))
		for _, fl := range flags {
			w.boolean(fl)
		}
	}
	w.i64(int64(p.NumFlagSites))
	w.i64(int64(p.MainID))

	return hex.EncodeToString(h.Sum(nil))
}

func sortedFPKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CacheKey derives the content address of a simulation outcome: the hex
// SHA-256 over the program fingerprint plus every Options field that can
// influence the result — processor count, policy, dynamic-feedback
// intervals and controller switches, parameter overrides, the
// instrumentation cost, and the canonical encoding of the perturbation
// schedule (the nil and empty schedules encode identically, so an
// unperturbed run's address does not depend on how "no perturbation" is
// spelled). Runs that install a Trace callback are not cacheable (the
// trace is a side effect a cached result cannot replay); for those ok is
// false.
//
//dfvet:fingerprint Options
//dfvet:fingerprint-exclude Options.Engine — both engines produce byte-identical Results by contract, so the engine choice never affects a cached outcome
func CacheKey(p *ir.Program, opts Options) (key string, ok bool) {
	if opts.Trace != nil {
		return "", false
	}
	if opts.ckHook != nil {
		// Checkpoint-hooked runs are test scaffolding: they may neither
		// masquerade as nor be served from a cached result.
		return "", false
	}
	opts = opts.withDefaults()

	h := sha256.New()
	w := &fpWriter{h: h}
	// v2: adds the perturbation-schedule encoding. The version bump also
	// retires v1 entries, whose cached results predate SectionStats.Switches.
	// v3: adds the controller kind (normalized, so "" and "roundrobin"
	// share entries) and retires v2 entries predating Version.Chunk.
	// v4: adds DetectRaces, which v3 omitted — a race-detecting run and a
	// plain run shared an address even though only one carries Result.Races
	// (found by the dfvet fingerprint analyzer).
	// v5: drops the machine cost model and the claim, dispatch and fork
	// costs, which stopped being options.
	w.str("obl-run-v5")
	w.str(Fingerprint(p))
	w.i64(int64(opts.Procs))
	w.str(opts.Policy)
	w.str(core.NormalizeKind(opts.Controller))
	w.i64(int64(opts.TargetSampling))
	w.i64(int64(opts.TargetProduction))
	w.boolean(opts.EarlyCutoff)
	w.boolean(opts.OrderByHistory)
	w.boolean(opts.SpanExecutions)
	w.boolean(opts.AutoTuneProduction)
	w.boolean(opts.AsyncSwitch)
	w.boolean(opts.DetectRaces)
	for _, name := range sortedFPKeys(opts.Params) {
		w.str(name)
		w.i64(opts.Params[name])
	}
	w.i64(int64(opts.InstrumentationCost))
	w.i64(opts.MaxSteps)
	sched := opts.Perturb.AppendCanonical(nil)
	w.u64(uint64(len(sched)))
	h.Write(sched)
	return hex.EncodeToString(h.Sum(nil)), true
}
