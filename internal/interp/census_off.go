//go:build !census

package interp

import "repro/internal/obl/vm"

// censusOn guards the dispatch census (census.go): without the census build
// tag it is false, and the guarded calls in vmTask.exec compile away.
const censusOn = false

func censusEntry()                                      {}
func censusOp(*vm.Module, *vm.FuncCode, int, *vm.Instr) {}
func censusLevels(int)                                  {}
