package subiso

// Hooks for the external tests (package subiso_test), which draw their
// queries with the workload generator and so cannot live in the package.
var (
	ContainsEager = containsEager
	SuperQueryOf  = superQueryOf
)
