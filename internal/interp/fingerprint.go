package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

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

// The canonical encoding appends primitives to a byte slice, which is
// then hashed. Every value is length- or tag-delimited, so distinct
// programs cannot collide by concatenation ambiguity.
func fpU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func fpI64(b []byte, v int64) []byte   { return fpU64(b, uint64(v)) }
func fpF64(b []byte, v float64) []byte { return fpU64(b, math.Float64bits(v)) }

func fpBool(b []byte, v bool) []byte {
	if v {
		return fpU64(b, 1)
	}
	return fpU64(b, 0)
}

func fpStr(b []byte, s string) []byte {
	b = fpU64(b, uint64(len(s)))
	return append(b, s...)
}

// fpHex renders a SHA-256 sum in hex.
func fpHex(sum []byte) string {
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum)
	return string(out[:])
}

func computeFingerprint(p *ir.Program) string {
	// A program's encoding runs to tens of kilobytes: it is hashed a
	// buffer at a time, after each instruction that fills the buffer.
	h := sha256.New()
	b := make([]byte, 0, 4096)
	spill := func() {
		if len(b) > cap(b)-256 {
			h.Write(b)
			b = b[:0]
		}
	}
	// v2: adds Version.Chunk (iteration-scheduling granularity).
	b = fpStr(b, "obl-program-v2")

	b = fpU64(b, uint64(len(p.ParamNames)))
	for _, name := range p.ParamNames {
		b = fpStr(b, name)
		b = fpI64(b, p.Params[name])
	}
	// The full Params map is encoded again in sorted order, so defaults
	// not reachable through ParamNames still distinguish programs.
	b = fpU64(b, uint64(len(p.Params)))
	for _, name := range sortedKeys(nil, p.Params) {
		b = fpStr(b, name)
		b = fpI64(b, p.Params[name])
	}

	b = fpU64(b, uint64(len(p.Externs)))
	for _, e := range p.Externs {
		b = fpStr(b, e.Name)
		b = fpI64(b, int64(e.NArgs))
		b = fpI64(b, e.Cost)
	}

	b = fpU64(b, uint64(len(p.Classes)))
	for _, c := range p.Classes {
		b = fpStr(b, c.Name)
		b = fpU64(b, uint64(len(c.Fields)))
		for i, f := range c.Fields {
			b = fpStr(b, f)
			b = fpI64(b, int64(c.FieldKinds[i]))
		}
	}

	b = fpU64(b, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = fpStr(b, f.Name)
		b = fpStr(b, f.Source)
		b = fpI64(b, int64(f.NParams))
		b = fpI64(b, int64(f.NRegs))
		b = fpU64(b, uint64(len(f.Code)))
		for _, in := range f.Code {
			b = fpU64(b, uint64(in.Op))
			b = fpI64(b, int64(in.Dst))
			b = fpI64(b, int64(in.A))
			b = fpI64(b, int64(in.B))
			b = fpI64(b, int64(in.C))
			b = fpI64(b, in.Imm)
			b = fpF64(b, in.F)
			b = fpU64(b, uint64(len(in.Args)))
			for _, r := range in.Args {
				b = fpI64(b, int64(r))
			}
			spill()
		}
	}

	b = fpU64(b, uint64(len(p.Sections)))
	for _, s := range p.Sections {
		b = fpI64(b, int64(s.ID))
		b = fpStr(b, s.Name)
		b = fpI64(b, int64(s.NCaptured))
		b = fpU64(b, uint64(len(s.Versions)))
		for _, v := range s.Versions {
			b = fpU64(b, uint64(len(v.Policies)))
			for _, pol := range v.Policies {
				b = fpStr(b, pol)
			}
			b = fpI64(b, int64(v.FuncID))
			b = fpU64(b, uint64(len(v.Flags)))
			for _, fl := range v.Flags {
				b = fpBool(b, fl)
			}
			b = fpI64(b, int64(v.Chunk))
		}
		for _, pol := range sortedKeys(nil, s.PolicyVersion) {
			b = fpStr(b, pol)
			b = fpI64(b, int64(s.PolicyVersion[pol]))
		}
	}

	b = fpU64(b, uint64(len(p.FlagPolicies)))
	for _, pol := range sortedKeys(nil, p.FlagPolicies) {
		b = fpStr(b, pol)
		flags := p.FlagPolicies[pol]
		b = fpU64(b, uint64(len(flags)))
		for _, fl := range flags {
			b = fpBool(b, fl)
		}
	}
	b = fpI64(b, int64(p.NumFlagSites))
	b = fpI64(b, int64(p.MainID))
	h.Write(b)
	return fpHex(h.Sum(nil))
}

// sortedKeys appends m's keys to keys[:0] in sorted order.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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

	// v2: adds the perturbation-schedule encoding. The version bump also
	// retires v1 entries, whose cached results predate SectionStats.Switches.
	// v3: adds the controller kind (normalized, so "" and "roundrobin"
	// share entries) and retires v2 entries predating Version.Chunk.
	// v4: adds DetectRaces, which v3 omitted — a race-detecting run and a
	// plain run shared an address even though only one carries Result.Races
	// (found by the dfvet fingerprint analyzer).
	// v5: drops the machine cost model and the claim, dispatch and fork
	// costs, which stopped being options.
	//
	// A request's encoding fits the stack buffer, and its parameter names
	// the stack array, unless it carries a long schedule or many overrides.
	var buf [512]byte
	b := fpStr(buf[:0], "obl-run-v5")
	b = fpStr(b, Fingerprint(p))
	b = fpI64(b, int64(opts.Procs))
	b = fpStr(b, opts.Policy)
	b = fpStr(b, core.NormalizeKind(opts.Controller))
	b = fpI64(b, int64(opts.TargetSampling))
	b = fpI64(b, int64(opts.TargetProduction))
	b = fpBool(b, opts.EarlyCutoff)
	b = fpBool(b, opts.OrderByHistory)
	b = fpBool(b, opts.SpanExecutions)
	b = fpBool(b, opts.AutoTuneProduction)
	b = fpBool(b, opts.AsyncSwitch)
	b = fpBool(b, opts.DetectRaces)
	var names [16]string
	for _, name := range sortedKeys(names[:], opts.Params) {
		b = fpStr(b, name)
		b = fpI64(b, opts.Params[name])
	}
	b = fpI64(b, int64(opts.InstrumentationCost))
	b = fpI64(b, opts.MaxSteps)
	// The schedule's encoding is preceded by its length, patched in after.
	at := len(b)
	b = opts.Perturb.AppendCanonical(fpU64(b, 0))
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	sum := sha256.Sum256(b)
	return fpHex(sum[:]), true
}
