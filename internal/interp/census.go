//go:build census

package interp

import (
	"strings"

	"repro/internal/obl/vm"
)

// The dispatch census: exact counts of the work the bytecode VM's dispatch
// loop does, compiled in only under the census build tag
// (go test -tags census). Counts of work are deterministic, so a change
// that moves work shows as an exact diff of testdata/census.golden, not as
// a timing a noisy host can hide. In the default build censusOn is false
// and every census call in vmTask.exec compiles away.
//
// The counters are plain globals: a census is meaningful for one
// simulation at a time, which is how TestCensusGolden runs them.

const censusOn = true

// Census is a snapshot of the counters since the last CensusReset.
type Census struct {
	// Entries counts calls of vmTask.exec: the scheduler dispatches that
	// reached the VM (real dispatches).
	Entries uint64
	// Ops counts VM dispatches per opcode, read after the plain-overlay
	// choice: a fused group counts once, under its own opcode.
	Ops [256]uint64
	// Pairs counts adjacent dispatches within one exec call, [prev][next].
	Pairs [256][256]uint64
	// Levels counts the whole descent levels OpDescend ran in registers
	// inside its dispatches.
	Levels uint64
	// Funcs is the call ledger by source function, its version suffixes
	// dropped (Body::walk for Body::walk@original).
	Funcs map[string]FuncCount
}

// FuncCount is one source function's calls and what they cost in
// dispatches. Calls counts its entries, a call (call, call.linear, which
// may stand for a whole recursion) or a splice's entry (callenter,
// callenter+descend); Dispatches counts those entries and every dispatch
// of a slot that came from its code.
type FuncCount struct {
	Calls, Dispatches uint64
}

// Dispatches is the total of VM dispatches.
func (c *Census) Dispatches() uint64 {
	var n uint64
	for _, k := range c.Ops {
		n += k
	}
	return n
}

var (
	census     Census
	censusPrev = -1 // the opcode dispatched last in this exec call, -1 none
	// censusFuncs is the call ledger, keyed by source function name: a
	// key that held a module would keep every compiled program reachable.
	censusFuncs = map[string]*FuncCount{}
)

// CensusReset zeroes the counters.
func CensusReset() { census, censusPrev, censusFuncs = Census{}, -1, map[string]*FuncCount{} }

// CensusSnapshot returns a copy of the counters.
func CensusSnapshot() *Census {
	c := census
	c.Funcs = map[string]FuncCount{}
	for name, n := range censusFuncs {
		c.Funcs[name] = *n
	}
	return &c
}

// censusName is a compiled function's source function name, its version
// suffixes dropped.
func censusName(fc *vm.FuncCode) string {
	name, _, _ := strings.Cut(fc.Name, "@")
	name, _, _ = strings.Cut(name, "__")
	return name
}

func censusEntry() {
	census.Entries++
	censusPrev = -1
}

// censusOp counts the dispatch of in, slot pc of fc in module mod.
func censusOp(mod *vm.Module, fc *vm.FuncCode, pc int, in *vm.Instr) {
	op := in.Op
	census.Ops[op]++
	if censusPrev >= 0 {
		census.Pairs[censusPrev][op]++
	}
	censusPrev = int(op)
	src, entry := mod.Funcs[fc.Src[pc].Fn], true
	switch op {
	case vm.OpCall, vm.OpCallLinear:
		src = mod.Funcs[in.Imm]
	case vm.OpCallEnter, vm.OpEnterDescend:
		src = mod.Funcs[fc.Src[pc+1].Fn] // the body's first slot
	default:
		entry = false
	}
	name := censusName(src)
	n := censusFuncs[name]
	if n == nil {
		n = new(FuncCount)
		censusFuncs[name] = n
	}
	if entry {
		n.Calls++
	}
	n.Dispatches++
}

func censusLevels(n int) { census.Levels += uint64(n) }
