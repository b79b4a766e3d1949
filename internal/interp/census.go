//go:build census

package interp

import "repro/internal/obl/vm"

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
)

// CensusReset zeroes the counters.
func CensusReset() { census, censusPrev = Census{}, -1 }

// CensusSnapshot returns a copy of the counters.
func CensusSnapshot() *Census {
	c := census
	return &c
}

func censusEntry() {
	census.Entries++
	censusPrev = -1
}

func censusOp(op vm.Op) {
	census.Ops[op]++
	if censusPrev >= 0 {
		census.Pairs[censusPrev][op]++
	}
	censusPrev = int(op)
}

func censusLevels(n int) { census.Levels += uint64(n) }
