package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/perturb"
)

// maxRunBody is the largest /run body the server reads.
const maxRunBody = 1 << 20

// bodyBufs pools /run body buffers; one that grew past maxPooledBody is
// left to the garbage collector.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// errTrailingData is the refusal of a body with more than white space after
// the request object.
var errTrailingData = errors.New("data after the request object")

// decodeRunRequestJSON decodes a /run body with encoding/json, the reference
// decoder and the only one that words a refusal: the body's bytes and then
// readErr (the error that ended reading them, nil at the end of the body)
// are what the decoder reads.
func decodeRunRequestJSON(body []byte, readErr error) (runRequest, error) {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	var req runRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	// Only white space may follow the object. (dec.More would let a stray
	// closing brace or bracket through.)
	if _, err := dec.Token(); err != io.EOF {
		return req, errTrailingData
	}
	return req, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeRunRequest decodes a /run body in the canonical shape without
// reflection: one object whose keys are the exact lower-case names of
// runRequest's fields other than "schedule", each at most once; strings of
// printable ASCII without escapes; integer literals; and "params" values
// that are integer literals (made float64 by strconv.ParseFloat, as
// encoding/json makes them) or booleans; then nothing but white space.
// It reports false for any other body, and the caller then decodes the same
// bytes with decodeRunRequestJSON: a refusal, a schedule, an escape, a
// fraction, null, a duplicate or case-folded key all take that path. Where
// it reports true, req is what encoding/json would have decoded
// (FuzzRunRequest holds it to that).
func decodeRunRequest(body []byte, req *runRequest) bool {
	p := reqParser{b: body}
	if !p.skip('{') {
		return false
	}
	if p.skip('}') {
		return p.end()
	}
	var seen uint8 // one bit per field, to decline a duplicate key
	for {
		key, ok := p.str()
		if !ok || !p.skip(':') {
			return false
		}
		var field uint8
		switch string(key) {
		case "section":
			field = 1 << 0
			req.Section, ok = p.name()
		case "iters":
			field = 1 << 1
			req.Iters, ok = p.int()
		case "app":
			field = 1 << 2
			req.App, ok = p.name()
		case "procs":
			field = 1 << 3
			req.Procs, ok = p.int()
		case "policy":
			field = 1 << 4
			req.Policy, ok = p.name()
		case "params":
			field = 1 << 5
			req.Params, ok = p.params()
		case "perturb":
			field = 1 << 6
			req.Perturb, ok = p.name()
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if p.skip('}') {
			return p.end()
		}
		if !p.skip(',') {
			return false
		}
	}
}

// knownNames are the strings a well-formed OBL request carries: app,
// policy, scenario and parameter names. A decoded string equal to one is
// that string, not a copy of the body's bytes (the body buffer is reused).
var knownNames = func() map[string]string {
	m := map[string]string{interp.PolicyDynamic: interp.PolicyDynamic, "serial": "serial"}
	for _, names := range [][]string{apps.Names, staticPolicies, perturb.ScenarioNames()} {
		for _, n := range names {
			m[n] = n
		}
	}
	for _, app := range apps.Names {
		for n := range apps.ParamBounds(app) {
			m[n] = n
		}
	}
	return m
}()

func internName(b []byte) string {
	if s, ok := knownNames[string(b)]; ok {
		return s
	}
	return string(b)
}

// smallFloats are the boxed float64 values of the integers 0 to 255, shared
// by every decoded params value they equal.
var smallFloats = func() (a [256]any) {
	for i := range a {
		a[i] = float64(i)
	}
	return a
}()

// reqParser scans a body for decodeRunRequest. Every method skips leading
// white space and reports false where the body leaves the canonical shape.
type reqParser struct {
	b []byte
	i int
}

func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// skip consumes the byte c.
func (p *reqParser) skip(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (p *reqParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str reads a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (p *reqParser) str() ([]byte, bool) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	for j := p.i + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i+1 : j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// name reads a string value.
func (p *reqParser) name() (string, bool) {
	s, ok := p.str()
	if !ok {
		return "", false
	}
	return internName(s), true
}

// lit reads an integer literal: an optional minus sign and digits, with no
// leading zero, fraction or exponent.
func (p *reqParser) lit() ([]byte, bool) {
	p.ws()
	j := p.i
	if j < len(p.b) && p.b[j] == '-' {
		j++
	}
	d := j
	for j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9' {
		j++
	}
	if j == d || (p.b[d] == '0' && j > d+1) {
		return nil, false
	}
	if j < len(p.b) && (p.b[j] == '.' || p.b[j] == 'e' || p.b[j] == 'E') {
		return nil, false
	}
	s := p.b[p.i:j]
	p.i = j
	return s, true
}

// int reads an integer literal into an int, as encoding/json parses one.
func (p *reqParser) int() (int, bool) {
	s, ok := p.lit()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	return int(v), err == nil
}

// params reads the params object.
func (p *reqParser) params() (map[string]any, bool) {
	if !p.skip('{') {
		return nil, false
	}
	m := map[string]any{}
	if p.skip('}') {
		return m, true
	}
	for {
		kb, ok := p.str()
		if !ok || !p.skip(':') {
			return nil, false
		}
		key := internName(kb)
		if _, dup := m[key]; dup {
			return nil, false
		}
		if m[key], ok = p.param(); !ok {
			return nil, false
		}
		if p.skip('}') {
			return m, true
		}
		if !p.skip(',') {
			return nil, false
		}
	}
}

// param reads a params value: a boolean, or an integer literal as a float64.
func (p *reqParser) param() (any, bool) {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		return false, true
	}
	s, ok := p.lit()
	if !ok {
		return nil, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return nil, false
	}
	if v := int(f); float64(v) == f && v >= 0 && v < len(smallFloats) && !math.Signbit(f) {
		return smallFloats[v], true
	}
	return f, true
}
