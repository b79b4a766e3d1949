// Package analysis is the static safety analyzer of the OBL compiler:
// per-method control-flow graphs, a worklist solver for the must-lockset
// dataflow over them, and the checkers that read its facts — one
// interprocedural lock walk per policy view yields both the lock-coverage
// and the lock-order findings — plus the lint and equivalence checkers.
//
// The centerpiece is translation validation of the synchronization
// optimizer (internal/obl/syncopt): the compiler emits several
// synchronization-optimized versions of each parallel section because the
// commutativity analysis proves them equivalent (§2–§3 of the paper), and
// this package independently re-derives the safety obligations — every
// write (and conflicting read) of a shared object's field inside a
// parallel section must be dominated by an acquire of that object's lock
// (or the coarsened lock the policy substituted), every critical region
// must release on every path, no version's acquires may admit a lock-order
// cycle, and every policy version must be sync-stripped-equivalent to the
// Original. Lint checkers (dead fields and functions via the call graph,
// unreachable statements, provably thread-local regions) share the
// diagnostic model.
//
// All checkers emit a unified Diagnostic model with stable codes, rendered
// as text, JSON, or SARIF, and surfaced through the `oblc vet` subcommand.
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obl/token"
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	// Info marks optimization opportunities and advisory findings; it
	// never gates a vet run.
	Info Severity = iota
	// Warning marks lint findings: almost certainly unintended code.
	Warning
	// Error marks safety violations: the compiled program may race.
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Stable diagnostic codes. Codes are part of the tool's interface: they
// appear in golden files, CI gates and SARIF rules, and must never be
// renumbered.
const (
	// CodeParse is a syntax error (from the parser).
	CodeParse = "OBL-E001"
	// CodeSema is a semantic error (from the type checker).
	CodeSema = "OBL-E002"
	// CodeUncoveredWrite: a field write of a shared object inside a
	// parallel section is not dominated by an acquire of the object's lock.
	CodeUncoveredWrite = "OBL-E100"
	// CodeUncoveredRead: a read of a field that the section also writes is
	// not dominated by an acquire of the object's lock.
	CodeUncoveredRead = "OBL-E101"
	// CodeLockLeak: a critical region can exit the function without
	// releasing its lock (a return inside the region).
	CodeLockLeak = "OBL-E102"
	// CodeNotEquivalent: a policy version is not sync-stripped-equivalent
	// to the Original program.
	CodeNotEquivalent = "OBL-E103"
	// CodeLockOrder: a policy version's lock-order graph has a cycle — an
	// acquire executed under held locks whose class ordering admits the
	// reverse acquisition elsewhere — so some interleaving of two
	// processors deadlocks.
	CodeLockOrder = "OBL-E104"
	// CodeDeadField: a class field is never referenced.
	CodeDeadField = "OBL-W200"
	// CodeDeadFunc: a function or method is unreachable from main.
	CodeDeadFunc = "OBL-W201"
	// CodeUnreachable: a statement can never execute.
	CodeUnreachable = "OBL-W202"
	// CodeThreadLocalSync: a critical region's lock object is provably
	// thread-local to one loop iteration; the synchronization could be
	// eliminated entirely (reported as an opportunity, not a defect).
	CodeThreadLocalSync = "OBL-I300"
	// CodeWriteOnlyField: a field is written but its value is never read.
	CodeWriteOnlyField = "OBL-I301"
)

// CodeInfo describes one diagnostic code for rule registries (SARIF).
type CodeInfo struct {
	Code     string
	Severity Severity
	Summary  string
}

// Codes lists every stable diagnostic code in order.
var Codes = []CodeInfo{
	{CodeParse, Error, "syntax error"},
	{CodeSema, Error, "semantic error"},
	{CodeUncoveredWrite, Error, "shared field write not covered by the object's lock in a parallel section"},
	{CodeUncoveredRead, Error, "conflicting field read not covered by the object's lock in a parallel section"},
	{CodeLockLeak, Error, "critical region may exit without releasing its lock"},
	{CodeNotEquivalent, Error, "policy version is not sync-stripped-equivalent to the Original"},
	{CodeLockOrder, Error, "lock-order cycle: some interleaving of the version's acquires deadlocks"},
	{CodeDeadField, Warning, "field is never referenced"},
	{CodeDeadFunc, Warning, "function or method is unreachable from main"},
	{CodeUnreachable, Warning, "unreachable statement"},
	{CodeThreadLocalSync, Info, "critical region on a provably thread-local object (elimination opportunity)"},
	{CodeWriteOnlyField, Info, "field is written but never read"},
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos is the source position the finding anchors to.
	Pos token.Pos `json:"pos"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Code is the stable diagnostic code (see the Code constants).
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Policy names the synchronization policy variant the finding applies
	// to ("original", "bounded", "aggressive", "flagged:<policy>"), or ""
	// for policy-independent findings.
	Policy string `json:"policy,omitempty"`
	// File is the source file the finding belongs to; filled in by drivers
	// that vet multiple inputs, empty for single-source analysis.
	File string `json:"file,omitempty"`
}

// MarshalJSON flattens the position into lowercase line/col keys so the
// wire form is uniformly lowercase.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Severity string `json:"severity"`
		Code     string `json:"code"`
		Message  string `json:"message"`
		Policy   string `json:"policy,omitempty"`
		File     string `json:"file,omitempty"`
	}{d.Pos.Line, d.Pos.Col, d.Severity.String(), d.Code, d.Message, d.Policy, d.File})
}

// String renders the diagnostic in the canonical single-line text form.
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteString(":")
	}
	fmt.Fprintf(&b, "%s: %s: [%s] %s", d.Pos, d.Severity, d.Code, d.Message)
	if d.Policy != "" {
		fmt.Fprintf(&b, " (policy %s)", d.Policy)
	}
	return b.String()
}

// Sort orders diagnostics for stable output: by file, position, severity
// (most severe first), code, policy, then message.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Message < b.Message
	})
}

// Dedup removes exact duplicates from a sorted diagnostic list.
func Dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if len(out) > 0 && out[len(out)-1] == d {
			continue
		}
		out = append(out, d)
	}
	return out
}

// MaxSeverity returns the highest severity present, or -1 for no findings.
func MaxSeverity(diags []Diagnostic) Severity {
	max := Severity(-1)
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// RenderText writes one line per diagnostic.
func RenderText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the diagnostics as an indented JSON array (an empty
// list renders as []).
func RenderJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// FromError converts a parse or sema error into diagnostics. Both phases
// report messages of the form "line:col: text", one per line; anything
// unparseable becomes a position-less diagnostic so no information is lost.
func FromError(err error, code string) []Diagnostic {
	sev := Error
	var out []Diagnostic
	for _, line := range strings.Split(err.Error(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		d := Diagnostic{Severity: sev, Code: code, Message: line}
		var l, c int
		if n, _ := fmt.Sscanf(line, "%d:%d:", &l, &c); n == 2 {
			if i := strings.Index(line, ": "); i >= 0 {
				d.Pos = token.Pos{Line: l, Col: c}
				d.Message = line[i+2:]
			}
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		out = append(out, Diagnostic{Severity: sev, Code: code, Message: err.Error()})
	}
	return out
}
