//go:build !census

package simmach

// censusOn guards the machine's census (census.go): without the census
// build tag it is false, and the guarded calls compile away.
const censusOn = false

func censusDispatch()   {}
func censusStillFirst() {}
func censusInsert(int)  {}
func censusGrant()      {}
func censusAhead()      {}
func censusLateGrant()  {}
func censusTakeover()   {}
func censusBarrier()    {}
