package serve

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/simmach"
)

// replyJSON is the OBL /run reply as a typed document, fields in the sorted
// key order a map[string]any encodes in: the reference appendRunReply is
// held to.
type replyJSON struct {
	Acquires       int64              `json:"acquires"`
	App            string             `json:"app"`
	Cached         bool               `json:"cached"`
	FailedAcquires int64              `json:"failed_acquires"`
	Kind           string             `json:"kind"`
	LockNS         int64              `json:"lock_ns"`
	Output         []string           `json:"output"`
	Perturb        string             `json:"perturb"`
	Policy         string             `json:"policy"`
	Procs          int                `json:"procs"`
	Sections       []replySectionJSON `json:"sections"`
	VirtualNS      int64              `json:"virtual_ns"`
	WaitNS         int64              `json:"wait_ns"`
	WallNS         int64              `json:"wall_ns"`
}

type replySectionJSON struct {
	Name       string           `json:"name"`
	Iterations int64            `json:"iterations"`
	Versions   []string         `json:"versions"`
	Chosen     string           `json:"chosen"`
	Switches   []adaptEventJSON `json:"switches,omitempty"`
}

// referenceReply renders the reply the way the handler did before it had an
// appender: build the document, json.Encoder with SetIndent.
func referenceReply(t *testing.T, r runReply, res *interp.Result) []byte {
	t.Helper()
	doc := replyJSON{
		Acquires: res.Counters.Acquires, App: r.app, Cached: r.cached,
		FailedAcquires: res.Counters.FailedAcquires, Kind: "obl",
		LockNS: int64(res.Counters.LockTime), Output: res.Output, Perturb: r.perturb,
		Policy: r.policy, Procs: r.procs, VirtualNS: int64(res.Time),
		WaitNS: int64(res.Counters.WaitTime), WallNS: r.wallNS,
	}
	for _, sec := range res.Sections {
		chosen := ""
		if sec.ChosenVersion >= 0 && sec.ChosenVersion < len(sec.VersionLabels) {
			chosen = sec.VersionLabels[sec.ChosenVersion]
		}
		doc.Sections = append(doc.Sections, replySectionJSON{
			Name: sec.Name, Iterations: sec.Iterations, Versions: sec.VersionLabels,
			Chosen: chosen, Switches: referenceEvents(sec),
		})
	}
	sort.Slice(doc.Sections, func(i, j int) bool { return doc.Sections[i].Name < doc.Sections[j].Name })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceEvents is the handler's former event filter, kept apart from
// isAdaptEvent so the two can disagree.
func referenceEvents(sec *interp.SectionStats) []adaptEventJSON {
	var out []adaptEventJSON
	for i, sw := range sec.Switches {
		if i > 0 && sw.Version == sec.Switches[i-1].Version {
			continue
		}
		out = append(out, adaptEventJSON{Round: sw.Round, Policy: sw.Label, AtNS: int64(sw.At)})
	}
	return out
}

// awkwardStrings are what a string field could hold that encoding/json does
// not copy through: quotes and backslashes, the HTML-unsafe three, control
// bytes with and without a short escape, DEL, non-ASCII text, the two
// separators JSON escapes for JavaScript's sake, and invalid UTF-8.
var awkwardStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>",
	"tab\there", "line\nbreak\r", "bell\a\b\f\v\x00\x1f", "del\x7f",
	"héllo wörld", "日本語", "sep\u2028and\u2029", "bad\xff\xfeutf8", "cut\xe6\x97",
}

func TestRunReplyMatchesEncodingJSON(t *testing.T) {
	labels := []string{"original", "bounded", "aggressive"}
	counters := simmach.Counters{Acquires: 51234, FailedAcquires: 87, LockTime: 2_049_360, WaitTime: 91_011}
	static := &interp.Result{
		Time: 7_654_321, Counters: counters, Output: []string{"energy 1.25", "checksum -42"},
		Sections: []*interp.SectionStats{
			{Name: "POTENG", VersionLabels: labels, Iterations: 48, ChosenVersion: 2},
			{Name: "INTERF", VersionLabels: labels, Iterations: 96, ChosenVersion: 0},
		},
	}
	dynamic := &interp.Result{
		Time: 9_000_000_000_000, Counters: counters, Output: []string{"ok"},
		Sections: []*interp.SectionStats{
			{Name: "INTERF", VersionLabels: labels, Iterations: 96, ChosenVersion: 1, Switches: []interp.SwitchStat{
				{Round: 0, Version: 2, Label: "aggressive", At: 1_200_000},
				{Round: 1, Version: 2, Label: "aggressive", At: 3_400_000}, // same version: not an event
				{Round: 2, Version: 0, Label: "original", At: 5_600_000},
				{Round: 3, Version: 1, Label: "bounded", At: 7_800_000},
			}},
			{Name: "ADVANCE", VersionLabels: labels[:1], Iterations: 1, ChosenVersion: 0, Switches: []interp.SwitchStat{
				{Round: 0, Version: 0, Label: "original", At: 10},
			}},
			{Name: "POTENG", VersionLabels: labels, Iterations: 48, ChosenVersion: 2},
		},
	}
	serial := &interp.Result{Time: 123, Output: []string{"serial"}}
	negative := &interp.Result{Time: -1, Counters: simmach.Counters{Acquires: -2, FailedAcquires: -3, LockTime: -4, WaitTime: -5},
		Sections: []*interp.SectionStats{{Name: "S", Iterations: -6, ChosenVersion: -1}}}
	var many []*interp.SectionStats // more sections than the sorter's stack buffer, in reverse
	for i := 19; i >= 0; i-- {
		many = append(many, &interp.SectionStats{Name: string(rune('A' + i)), VersionLabels: labels, ChosenVersion: i % 4})
	}
	awkward := &interp.Result{Output: awkwardStrings}
	for _, s := range awkwardStrings {
		awkward.Sections = append(awkward.Sections, &interp.SectionStats{
			Name: s, VersionLabels: []string{s, "plain"}, ChosenVersion: 0,
			Switches: []interp.SwitchStat{{Label: s}},
		})
	}

	type replyCase struct {
		name  string
		reply runReply
		res   *interp.Result
	}
	cases := []replyCase{
		{"static", runReply{app: "water", policy: "aggressive", procs: 8, cached: true, wallNS: 1234}, static},
		{"dynamic with switches", runReply{app: "water", policy: "dynamic", procs: 16, wallNS: 987_654_321}, dynamic},
		{"serial", runReply{app: "string", policy: "serial", procs: 4, cached: true}, serial},
		{"built-in schedule", runReply{app: "water", policy: "dynamic", perturb: "crossover", procs: 8}, dynamic},
		{"custom schedule", runReply{app: "water", policy: "dynamic", perturb: "custom", procs: 8}, dynamic},
		{"nil output", runReply{app: "water", policy: "original", procs: 1}, &interp.Result{}},
		{"empty output and sections", runReply{app: "water", policy: "original", procs: 1},
			&interp.Result{Output: []string{}, Sections: []*interp.SectionStats{}}},
		{"nil and empty versions", runReply{app: "water", policy: "original", procs: 1},
			&interp.Result{Sections: []*interp.SectionStats{
				{Name: "B", ChosenVersion: 0}, {Name: "A", VersionLabels: []string{}, ChosenVersion: 5}}}},
		{"negative numbers", runReply{app: "water", policy: "original", procs: -7, wallNS: -8}, negative},
		{"twenty sections", runReply{app: "water", policy: "original", procs: 8}, &interp.Result{Sections: many}},
		{"awkward strings in the result", runReply{app: "water", policy: "dynamic", procs: 8}, awkward},
	}
	// Real results, as the handler would hold them.
	for _, app := range apps.Names {
		c, err := apps.Compile(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"original", interp.PolicyDynamic} {
			res, err := interp.Run(c.Parallel, interp.Options{Procs: 4, Policy: policy, Params: apps.TestParams(app),
				TargetSampling: simmach.Time(time.Millisecond), TargetProduction: simmach.Time(50 * time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, replyCase{"simulated " + policy, runReply{app: app, policy: policy, procs: 4, wallNS: 1}, res})
		}
	}
	for _, s := range awkwardStrings {
		cases = append(cases, replyCase{"awkward request strings", runReply{app: s, policy: s, perturb: s}, static})
	}
	for _, c := range cases {
		want := referenceReply(t, c.reply, c.res)
		// Into a dirty, too-small buffer: what the pool hands out.
		got := appendRunReply(append(make([]byte, 0, 16), "stale"...)[:0], c.reply, c.res)
		if !bytes.Equal(got, want) {
			t.Errorf("%s (%q):\n got %s\nwant %s", c.name, c.reply.app, got, want)
		}
	}
}

// TestRunReplyLayout pins the layout itself, so that the differential test
// above cannot pass by both sides moving together.
func TestRunReplyLayout(t *testing.T) {
	res := &interp.Result{
		Time: 42, Counters: simmach.Counters{Acquires: 3, FailedAcquires: 1, LockTime: 20, WaitTime: 5},
		Output: []string{"a<b"},
		Sections: []*interp.SectionStats{{
			Name: "LOOP", VersionLabels: []string{"original", "bounded"}, Iterations: 7, ChosenVersion: 1,
			Switches: []interp.SwitchStat{{Round: 0, Version: 1, Label: "bounded", At: 9}},
		}},
	}
	got := appendRunReply(nil, runReply{app: "water", policy: "dynamic", procs: 8, cached: true, wallNS: 11}, res)
	const want = `{
  "acquires": 3,
  "app": "water",
  "cached": true,
  "failed_acquires": 1,
  "kind": "obl",
  "lock_ns": 20,
  "output": [
    "a\u003cb"
  ],
  "perturb": "",
  "policy": "dynamic",
  "procs": 8,
  "sections": [
    {
      "name": "LOOP",
      "iterations": 7,
      "versions": [
        "original",
        "bounded"
      ],
      "chosen": "bounded",
      "switches": [
        {
          "round": 0,
          "policy": "bounded",
          "at_ns": 9
        }
      ]
    }
  ],
  "virtual_ns": 42,
  "wait_ns": 5,
  "wall_ns": 11
}
`
	if string(got) != want {
		t.Errorf("reply layout moved:\n got %s\nwant %s", got, want)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range awkwardStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal gives %s", s, got[1:], want)
		}
	})
}
