//go:build race

package wire

// raceEnabled reports that this binary was built with -race, whose
// runtime perturbs allocation counts (instrumentation inhibits
// inlining), making exact AllocsPerRun pins meaningless.
const raceEnabled = true
