package chanalloc

// Equivalence and determinism tests for the channel-allocation engine:
// the heap-driven greedy and cached delta-cost climb must produce
// bit-identical allocations to the oracles of oracle_test.go (the paper's
// table scan and uncached channel costs), fixed-seed multi-start must be
// invariant under Parallelism, and the group-cost cache must cut merge
// solves by the margin the engine promises.

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
)

// variant clones the Problem's inputs into a fresh Problem (fresh cache,
// fresh settings); Problems carry a sync.Once so they cannot be copied by
// value.
func variant(p *Problem, mutate func(*Problem)) *Problem {
	v := &Problem{
		Inst:     p.Inst,
		Clients:  p.Clients,
		Channels: p.Channels,
		Merger:   p.Merger,
	}
	if mutate != nil {
		mutate(v)
	}
	return v
}

func allocsEqual(a, b Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adversarialProblems builds degenerate allocation instances: every
// client sharing one query, disjoint single-query clients, identical
// subscriptions, and more channels than clients.
func adversarialProblems() map[string]*Problem {
	shared := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(2, 2, 8, 8), geom.R(50, 50, 60, 60)}
	disjoint := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(10, 10, 11, 11), geom.R(20, 20, 21, 21), geom.R(30, 30, 31, 31)}
	return map[string]*Problem{
		"all-share-one-query": newProblem(testModel, shared,
			[][]int{{0}, {0, 1}, {0, 2}, {0}, {0, 1, 2}}, 2),
		"disjoint-singletons": newProblem(testModel, disjoint,
			[][]int{{0}, {1}, {2}, {3}}, 2),
		"identical-subscriptions": newProblem(testModel, shared,
			[][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}, 3),
		"more-channels-than-clients": newProblem(testModel, disjoint,
			[][]int{{0, 1}, {2}}, 4),
	}
}

// TestEngineMatchesAblations pins the engine's core equivalence claim:
// heap selection and cached delta-cost probes change how costs are
// found, never their values, so allocations and costs are bit-identical
// to the table-scan and uncached-cost oracles on random and adversarial
// problems, for every strategy at Parallelism 1 and 2.
func TestEngineMatchesAblations(t *testing.T) {
	probs := adversarialProblems()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		probs["random"] = randomProblem(rng, 8, 6, 3, testModel)
		probs["random-tight"] = randomProblem(rng, 5, 7, 2, testModel)

		for name, base := range probs {
			engine := variant(base, nil)
			if got, want := InitialDistribution(engine), scanInitialDistribution(base); !allocsEqual(got, want) {
				t.Fatalf("%s: InitialDistribution = %v, table scan = %v", name, got, want)
			}

			start := RandomDistribution(engine, int64(i))
			if got, want := HillClimb(engine, start), oracleClimb(base, start); !allocsEqual(got, want) {
				t.Fatalf("%s: HillClimb = %v, uncached climb = %v", name, got, want)
			}

			for _, s := range []Strategy{SmartInit, RandomInit, BestOfBoth, MultiStartInit} {
				wantA, wantC := oracleHeuristic(base, s, int64(i))
				for _, par := range []int{1, 2} {
					gotA, gotC, err := Heuristic(variant(base, func(p *Problem) { p.Parallelism = par }), s, int64(i))
					if err != nil {
						t.Fatalf("%s: Heuristic(%v): %v", name, s, err)
					}
					if gotC != wantC || !allocsEqual(gotA, wantA) {
						t.Fatalf("%s: Heuristic(%v) at Parallelism %d = %v cost %v, oracle = %v cost %v",
							name, s, par, gotA, gotC, wantA, wantC)
					}
				}
			}
		}
	}
}

// TestInitialDistributionTiesMatchScan pins the candidate heap's tie rule
// to the scan's "first strictly greater" rule: four clients with one
// subscription, so every pair has the same gain. The scan pairs (0, 1)
// onto channel 0 first, then (2, 3) onto channel 1; so must the heap.
func TestInitialDistributionTiesMatchScan(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 10, 10), geom.R(2, 2, 8, 8)}
	p := newProblem(testModel, rects, [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}, 3)
	want := Allocation{0, 0, 1, 1}
	if got := scanInitialDistribution(p); !allocsEqual(got, want) {
		t.Fatalf("table scan = %v, want %v", got, want)
	}
	if got := InitialDistribution(p); !allocsEqual(got, want) {
		t.Fatalf("InitialDistribution = %v, table scan %v", got, want)
	}
}

// TestMultiStartParallelismInvariance pins the determinism contract: a
// fixed seed yields the same allocation and cost at any Parallelism.
func TestMultiStartParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		base := randomProblem(rng, 9, 8, 3, testModel)
		wantA, wantC, err := MultiStart(variant(base, func(p *Problem) { p.Parallelism = 1 }), int64(trial))
		if err != nil {
			t.Fatalf("MultiStart sequential: %v", err)
		}
		for _, par := range []int{2, 4, 8} {
			gotA, gotC, err := MultiStart(variant(base, func(p *Problem) { p.Parallelism = par }), int64(trial))
			if err != nil {
				t.Fatalf("MultiStart parallelism=%d: %v", par, err)
			}
			if gotC != wantC || !allocsEqual(gotA, wantA) {
				t.Fatalf("MultiStart parallelism=%d = %v cost %v, sequential = %v cost %v",
					par, gotA, gotC, wantA, wantC)
			}
		}
		// Restarts must subsume the sequential single climbs: the winner
		// can never cost more than the smart-init local minimum.
		_, smartC, err := Heuristic(variant(base, nil), SmartInit, int64(trial))
		if err != nil {
			t.Fatalf("Heuristic SmartInit: %v", err)
		}
		if wantC > smartC {
			t.Fatalf("MultiStart cost %v worse than smart-init %v", wantC, smartC)
		}
	}
}

// TestBestOfBothParallelismInvariance checks the concurrent two-climb
// path agrees with the sequential one, including its tie rule.
func TestBestOfBothParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		base := randomProblem(rng, 7, 6, 2, testModel)
		wantA, wantC, err := Heuristic(variant(base, func(p *Problem) { p.Parallelism = 1 }), BestOfBoth, int64(trial))
		if err != nil {
			t.Fatalf("BestOfBoth sequential: %v", err)
		}
		gotA, gotC, err := Heuristic(variant(base, func(p *Problem) { p.Parallelism = 4 }), BestOfBoth, int64(trial))
		if err != nil {
			t.Fatalf("BestOfBoth parallel: %v", err)
		}
		if gotC != wantC || !allocsEqual(gotA, wantA) {
			t.Fatalf("BestOfBoth parallel = %v cost %v, sequential = %v cost %v",
				gotA, gotC, wantA, wantC)
		}
	}
}

// countingSizer wraps a cost.Sizer and counts MergedSize probes — the
// unit of merge-solve work the group-cost cache is meant to eliminate.
type countingSizer struct {
	inner cost.Sizer
	calls atomic.Int64
}

func (cs *countingSizer) Size(i int) float64 { return cs.inner.Size(i) }

func (cs *countingSizer) MergedSize(set []int) float64 {
	cs.calls.Add(1)
	return cs.inner.MergedSize(set)
}

// TestGroupCostCacheCutsSolves pins the headline acceptance criterion:
// the cached engine issues at least 5x fewer merge-size probes than the
// uncached oracle on the multi-start workload, where restarts climb
// through heavily overlapping channel groups and the shared cache
// collapses the repeats (runs sequentially so the counts are stable).
func TestGroupCostCacheCutsSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomProblem(rng, 10, 12, 3, testModel)

	// counted returns a fresh copy of base whose sizer counts probes.
	counted := func() (*Problem, *countingSizer) {
		p := variant(base, func(p *Problem) { p.Parallelism = 1 })
		cs := &countingSizer{inner: p.Inst.Sizer}
		inst := *p.Inst
		inst.Sizer = cs
		p.Inst = &inst
		return p, cs
	}
	p, cs := counted()
	wantA, wantC, err := Heuristic(p, MultiStartInit, 1)
	if err != nil {
		t.Fatalf("Heuristic: %v", err)
	}
	engine := cs.calls.Load()
	p, cs = counted()
	gotA, gotC := oracleHeuristic(p, MultiStartInit, 1)
	uncached := cs.calls.Load()
	if gotC != wantC || !allocsEqual(gotA, wantA) {
		t.Fatalf("engine %v cost %v, uncached oracle %v cost %v", wantA, wantC, gotA, gotC)
	}
	if engine == 0 {
		t.Fatal("engine issued no merge-size probes")
	}
	if uncached < 5*engine {
		t.Fatalf("cache cut merge probes only %.1fx (engine %d, uncached %d), want >= 5x",
			float64(uncached)/float64(engine), engine, uncached)
	}
	t.Logf("merge-size probes: engine %d, uncached oracle %d (%.1fx)",
		engine, uncached, float64(uncached)/float64(engine))
}
