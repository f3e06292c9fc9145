// Package procs holds the helper the determinism tests share: the
// parallel solvers size their worker pools from GOMAXPROCS, so a test
// that pins "the same plan at any pool size" varies GOMAXPROCS. Only
// tests import it.
package procs

import "runtime"

// At runs f with GOMAXPROCS set to n, then restores the previous value.
func At(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}
