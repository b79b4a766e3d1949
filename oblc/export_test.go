package oblc

// GenProgram exposes the random commuting-program generator to the
// external test package (which may import internal/apps; this one may not).
var GenProgram = genProgram
