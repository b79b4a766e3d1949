//go:build census

package simmach

// The machine's half of the dispatch census (the VM's half is
// internal/interp/census.go): exact counts of the scheduling work a run
// does, compiled in only under the census build tag. In the default build
// censusOn is false and every census call compiles away.
//
// The counters are plain globals: a census is meaningful for one
// simulation at a time, which is how the census test runs them.

const censusOn = true

// Census is a snapshot of the counters since the last CensusReset.
type Census struct {
	// Dispatches counts Process.Step calls, and StillFirst those of them
	// that ran a processor again because it was still first in the
	// schedule, without a run-queue round trip.
	Dispatches, StillFirst uint64
	// Inserts counts run-queue inserts, and Moved the entries they shifted
	// to open their slots.
	Inserts, Moved uint64
	// Grants counts locks handed to a waiting processor (late grants
	// included), Ahead the releases taken ahead of their turn, LateGrants
	// the grants to a late acquirer at the end of such a release, and
	// Takeovers the late grants an earlier acquirer took over.
	Grants, Ahead, LateGrants, Takeovers uint64
	// Barriers counts completed barrier rendezvous.
	Barriers uint64
}

var census Census

// CensusReset zeroes the counters.
func CensusReset() { census = Census{} }

// CensusSnapshot returns a copy of the counters.
func CensusSnapshot() *Census {
	c := census
	return &c
}

func censusDispatch()        { census.Dispatches++ }
func censusStillFirst()      { census.StillFirst++ }
func censusInsert(moved int) { census.Inserts++; census.Moved += uint64(moved) }
func censusGrant()           { census.Grants++ }
func censusAhead()           { census.Ahead++ }
func censusLateGrant()       { census.LateGrants++ }
func censusTakeover()        { census.Takeovers++ }
func censusBarrier()         { census.Barriers++ }
