package serve

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/interp"
)

// runReply is what an OBL /run answers with, beside the result itself.
type runReply struct {
	app, policy, perturb string
	procs                int
	cached               bool
	wallNS               int64
}

// replyBufs recycles the buffers OBL /run replies are rendered into. A
// buffer that grew past maxPooledReply (a program with a very long output)
// is dropped rather than kept, so the pool's footprint stays bounded.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// appendRunReply appends the OBL /run reply in one pass. The bytes are
// exactly what encoding/json produced for the map the handler used to
// build, encoded with SetIndent("", "  "): top-level keys sorted, null for
// a nil "output" or "versions" and for a run without sections, [] for an
// empty one, "switches" left out of a section without adaptation events,
// and a trailing newline. TestRunReplyMatchesEncodingJSON holds it to that.
func appendRunReply(b []byte, r runReply, res *interp.Result) []byte {
	b = append(b, "{\n  \"acquires\": "...)
	b = strconv.AppendInt(b, res.Counters.Acquires, 10)
	b = append(b, ",\n  \"app\": "...)
	b = appendJSONString(b, r.app)
	b = append(b, ",\n  \"cached\": "...)
	b = strconv.AppendBool(b, r.cached)
	b = append(b, ",\n  \"failed_acquires\": "...)
	b = strconv.AppendInt(b, res.Counters.FailedAcquires, 10)
	b = append(b, ",\n  \"kind\": \"obl\",\n  \"lock_ns\": "...)
	b = strconv.AppendInt(b, int64(res.Counters.LockTime), 10)
	b = append(b, ",\n  \"output\": "...)
	b = appendStrings(b, res.Output, "\n    ")
	b = append(b, ",\n  \"perturb\": "...)
	b = appendJSONString(b, r.perturb)
	b = append(b, ",\n  \"policy\": "...)
	b = appendJSONString(b, r.policy)
	b = append(b, ",\n  \"procs\": "...)
	b = strconv.AppendInt(b, int64(r.procs), 10)
	b = append(b, ",\n  \"sections\": "...)
	b = appendSections(b, res.Sections)
	b = append(b, ",\n  \"virtual_ns\": "...)
	b = strconv.AppendInt(b, int64(res.Time), 10)
	b = append(b, ",\n  \"wait_ns\": "...)
	b = strconv.AppendInt(b, int64(res.Counters.WaitTime), 10)
	b = append(b, ",\n  \"wall_ns\": "...)
	b = strconv.AppendInt(b, r.wallNS, 10)
	return append(b, "\n}\n"...)
}

// appendSections appends the per-section report, sorted by section name.
func appendSections(b []byte, sections []*interp.SectionStats) []byte {
	if len(sections) == 0 {
		return append(b, "null"...)
	}
	// The result is shared with the cache and other requests: sort a copy.
	var local [8]*interp.SectionStats
	sorted := append(local[:0], sections...)
	slices.SortFunc(sorted, func(x, y *interp.SectionStats) int { return strings.Compare(x.Name, y.Name) })
	b = append(b, '[')
	for i, sec := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendJSONString(b, sec.Name)
		b = append(b, ",\n      \"iterations\": "...)
		b = strconv.AppendInt(b, sec.Iterations, 10)
		b = append(b, ",\n      \"versions\": "...)
		b = appendStrings(b, sec.VersionLabels, "\n        ")
		b = append(b, ",\n      \"chosen\": "...)
		chosen := ""
		if sec.ChosenVersion >= 0 && sec.ChosenVersion < len(sec.VersionLabels) {
			chosen = sec.VersionLabels[sec.ChosenVersion]
		}
		b = appendJSONString(b, chosen)
		if len(sec.Switches) > 0 {
			b = append(b, ",\n      \"switches\": ["...)
			for j, sw := range sec.Switches {
				if !isAdaptEvent(sec.Switches, j) {
					continue
				}
				if j > 0 { // entry 0 is always an event
					b = append(b, ',')
				}
				b = append(b, "\n        {\n          \"round\": "...)
				b = strconv.AppendInt(b, int64(sw.Round), 10)
				b = append(b, ",\n          \"policy\": "...)
				b = appendJSONString(b, sw.Label)
				b = append(b, ",\n          \"at_ns\": "...)
				b = strconv.AppendInt(b, int64(sw.At), 10)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]"...)
}

// appendStrings appends a string array whose elements each follow indent (a
// newline and the elements' indentation).
func appendStrings(b []byte, ss []string, indent string) []byte {
	switch {
	case ss == nil:
		return append(b, "null"...)
	case len(ss) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent...)
		b = appendJSONString(b, s)
	}
	b = append(b, indent[:len(indent)-2]...)
	return append(b, ']')
}

// appendJSONString appends s as a JSON string, as json.Marshal encodes it.
// A string of printable ASCII with nothing json.Marshal escapes (quote,
// backslash, and <, > and & for HTML safety) is copied between quotes; any
// other goes through json.Marshal itself, so control bytes, non-ASCII text
// and invalid UTF-8 come out as the library's version renders them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // cannot fail on a string
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
