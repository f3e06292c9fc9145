package core

import (
	"sync/atomic"
	"time"
)

// Budget bounds how much work a solver may spend on one plan, making
// replan latency a controllable SLO (§11's dynamic scenario: churn keeps
// arriving whether or not the planner is done). A budget combines an
// optional wall-clock deadline with an optional step cap; either limit
// tripping marks the budget exhausted, and every solver threaded through
// an Instance.Budget then finishes its current move and returns the best
// plan found so far — always a valid partition, never empty.
//
// Steps are abstract solver work units (candidate probes, heap pops,
// hill-climb moves). The step counter doubles as the deadline clock
// divider: time.Now is consulted only when the counter crosses a
// 256-step boundary, so per-probe accounting stays one atomic add.
//
// A Budget is safe for concurrent use: parallel restarts share one
// budget, and the exhausted flag is sticky — once tripped, every
// subsequent Step and Exhausted call observes it.
//
// The zero *Budget (nil) means unlimited; every method is nil-safe.
type Budget struct {
	deadline    time.Time
	hasDeadline bool
	maxSteps    int64

	steps     atomic.Int64
	exhausted atomic.Bool
}

// deadlineStride is how many steps pass between deadline checks.
const deadlineStride = 256

// NewBudget builds a budget expiring after d of wall time (d <= 0: no
// deadline) or after maxSteps solver steps (maxSteps <= 0: no cap).
// NewBudget(0, 0) returns nil — an unlimited budget.
func NewBudget(d time.Duration, maxSteps int64) *Budget {
	if d <= 0 && maxSteps <= 0 {
		return nil
	}
	b := &Budget{maxSteps: maxSteps}
	if d > 0 {
		b.deadline = time.Now().Add(d)
		b.hasDeadline = true
	}
	return b
}

// Step records n units of solver work and reports whether the budget
// still has room. The first call that exceeds a limit flips the sticky
// exhausted flag and returns false; callers stop generating new work and
// fall through to returning their best-so-far plan. The nil check is all
// an unbudgeted solve pays: Step inlines into the per-pair loops, step
// does not.
func (b *Budget) Step(n int64) bool {
	return b == nil || b.step(n)
}

func (b *Budget) step(n int64) bool {
	if b.exhausted.Load() {
		return false
	}
	s := b.steps.Add(n)
	if b.maxSteps > 0 && s >= b.maxSteps {
		b.exhausted.Store(true)
		return false
	}
	if b.hasDeadline && s/deadlineStride != (s-n)/deadlineStride {
		if time.Now().After(b.deadline) {
			b.exhausted.Store(true)
			return false
		}
	}
	return true
}

// Exhausted reports whether a limit has tripped. Nil budgets are never
// exhausted.
func (b *Budget) Exhausted() bool { return b != nil && b.exhausted.Load() }

// Converged is the solver-result reading of the flag: true when the
// solve ran to natural completion (no limit tripped), false when the
// returned plan is a best-so-far cut short by the budget.
func (b *Budget) Converged() bool { return !b.Exhausted() }

// Steps returns the work units recorded so far.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}
