package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/procs"
)

// This file pins the solver-engine rewrite to the seed behavior: the
// heap-driven Pair Merging engine must match the Profit Table oracle,
// and the parallel DirectedSearch/Clustering paths must return the exact
// plan the sequential paths return for the same seed, at any
// GOMAXPROCS (which sizes their worker pools).

// relClose reports whether two costs agree to within a relative 1e-9.
func relClose(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

func TestHeapPairMergeMatchesTableGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(38) // up to 40 queries
		inst := randomInstance(rng, n, paperModel)
		heap := inst.Cost(PairMerge{}.Solve(inst))
		table := inst.Cost(profitTable{}.Solve(inst))
		if !relClose(heap, table) {
			t.Fatalf("n=%d trial=%d: heap cost %g != table cost %g", n, trial, heap, table)
		}
	}
}

func TestHeapPairMergeMatchesTableAbstract(t *testing.T) {
	// Abstract instances have adversarial (non-geometric) merged sizes,
	// and n > 64 exercises the multi-word bitset path.
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{5, 12, 40, 80} {
		for trial := 0; trial < 5; trial++ {
			inst := randomAbstractInstance(rng, n, paperModel)
			heap := inst.Cost(PairMerge{}.Solve(inst))
			table := inst.Cost(profitTable{}.Solve(inst))
			if !relClose(heap, table) {
				t.Fatalf("n=%d trial=%d: heap cost %g != table cost %g", n, trial, heap, table)
			}
		}
	}
}

func TestDirectedSearchParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{8, 20, 70} {
		for seed := int64(1); seed <= 3; seed++ {
			inst := randomInstance(rng, n, paperModel)
			var base Plan
			procs.At(1, func() { base = DirectedSearch{T: 6, Seed: seed}.Solve(inst) })
			for _, workers := range []int{2, 4, 8} {
				var got Plan
				procs.At(workers, func() { got = DirectedSearch{T: 6, Seed: seed}.Solve(inst) })
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("n=%d seed=%d: plan differs between GOMAXPROCS 1 and %d:\n%v\nvs\n%v",
						n, seed, workers, base, got)
				}
			}
		}
	}
}

// ruggedInstance lays copies of Fig 6's three queries far apart. Within
// a copy no pair is worth merging but all three are (Appendix 1), so the
// climb from singletons merges nothing and the plan is whatever the
// random restarts find: a test on it sees how each restart is seeded.
func ruggedInstance(copies int) *Instance {
	var rects []geom.Rect
	for c := 0; c < copies; c++ {
		dx := float64(100 * c)
		rects = append(rects, geom.R(dx, 1, dx+2, 2), geom.R(dx+1, 0, dx+2, 2), geom.R(dx, 0, dx+1, 1))
	}
	return geomInstance(paperModel, rects)
}

func TestDirectedSearchParallelismInvariantAbstract(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	insts := []*Instance{randomAbstractInstance(rng, 10, paperModel), randomAbstractInstance(rng, 30, paperModel)}
	for _, copies := range []int{6, 10} {
		inst := ruggedInstance(copies)
		restarts, first := DirectedSearch{T: 6, Seed: 7}.Solve(inst), DirectedSearch{T: 1, Seed: 7}.Solve(inst)
		if restarts.Equal(first) {
			t.Fatalf("%d Fig 6 copies: the random restarts do not change the plan", copies)
		}
		insts = append(insts, inst)
	}
	for _, inst := range insts {
		var base Plan
		procs.At(1, func() { base = DirectedSearch{T: 6, Seed: 7}.Solve(inst) })
		for _, workers := range []int{2, 4, 8} {
			var got Plan
			procs.At(workers, func() { got = DirectedSearch{T: 6, Seed: 7}.Solve(inst) })
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between GOMAXPROCS 1 and %d:\n%v\nvs\n%v",
					inst.N, workers, base, got)
			}
		}
	}
}

func TestClusteringParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{8, 20, 70} {
		inst := randomInstance(rng, n, paperModel)
		var base Plan
		procs.At(1, func() { base = Clustering{ExactThreshold: 6}.Solve(inst) })
		for _, workers := range []int{2, 4, 8} {
			var got Plan
			procs.At(workers, func() { got = Clustering{ExactThreshold: 6}.Solve(inst) })
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between GOMAXPROCS 1 and %d:\n%v\nvs\n%v",
					n, workers, base, got)
			}
		}
	}
}

func TestClusteringParallelismInvariantAbstract(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{10, 30} {
		inst := randomAbstractInstance(rng, n, paperModel)
		var base Plan
		procs.At(1, func() { base = Clustering{ExactThreshold: 6}.Solve(inst) })
		for _, workers := range []int{2, 4, 8} {
			var got Plan
			procs.At(workers, func() { got = Clustering{ExactThreshold: 6}.Solve(inst) })
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between GOMAXPROCS 1 and %d:\n%v\nvs\n%v",
					n, workers, base, got)
			}
		}
	}
}

func TestParallelSolversShareOneMemo(t *testing.T) {
	// Solving through a pre-wrapped Memo must give the same plan as
	// letting the solver wrap the instance itself: memoized() must not
	// double-wrap, and the shared cache must be semantically invisible.
	rng := rand.New(rand.NewSource(48))
	inst := randomInstance(rng, 25, paperModel)
	wrapped := memoized(inst)
	if memoized(wrapped) != wrapped {
		t.Fatal("memoized() re-wrapped an instance that already carries a Memo")
	}
	var direct, viaMemo Plan
	procs.At(4, func() {
		direct = DirectedSearch{T: 4, Seed: 2}.Solve(inst)
		viaMemo = DirectedSearch{T: 4, Seed: 2}.Solve(wrapped)
	})
	if !reflect.DeepEqual(direct, viaMemo) {
		t.Fatalf("plan changed under a pre-wrapped memo:\n%v\nvs\n%v", direct, viaMemo)
	}
}
