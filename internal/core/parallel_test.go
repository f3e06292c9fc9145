package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file pins the solver-engine rewrite to the seed behavior: the
// heap-driven Pair Merging engine must match the Profit Table oracle,
// and the parallel DirectedSearch/Clustering paths must return the exact
// plan the sequential paths return for the same seed, at any
// Parallelism.

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
			base := DirectedSearch{T: 6, Seed: seed, Parallelism: 1}.Solve(inst)
			for _, workers := range []int{2, 4, 8} {
				got := DirectedSearch{T: 6, Seed: seed, Parallelism: workers}.Solve(inst)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("n=%d seed=%d: plan differs between Parallelism 1 and %d:\n%v\nvs\n%v",
						n, seed, workers, base, got)
				}
			}
		}
	}
}

func TestDirectedSearchParallelismInvariantAbstract(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{10, 30} {
		inst := randomAbstractInstance(rng, n, paperModel)
		base := DirectedSearch{T: 6, Seed: 7, Parallelism: 1}.Solve(inst)
		for _, workers := range []int{2, 4, 8} {
			got := DirectedSearch{T: 6, Seed: 7, Parallelism: workers}.Solve(inst)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between Parallelism 1 and %d:\n%v\nvs\n%v",
					n, workers, base, got)
			}
		}
	}
}

func TestClusteringParallelismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{8, 20, 70} {
		inst := randomInstance(rng, n, paperModel)
		base := Clustering{ExactThreshold: 6, Parallelism: 1}.Solve(inst)
		for _, workers := range []int{2, 4, 8} {
			got := Clustering{ExactThreshold: 6, Parallelism: workers}.Solve(inst)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between Parallelism 1 and %d:\n%v\nvs\n%v",
					n, workers, base, got)
			}
		}
	}
}

func TestClusteringParallelismInvariantAbstract(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{10, 30} {
		inst := randomAbstractInstance(rng, n, paperModel)
		base := Clustering{ExactThreshold: 6, Parallelism: 1}.Solve(inst)
		for _, workers := range []int{2, 4, 8} {
			got := Clustering{ExactThreshold: 6, Parallelism: workers}.Solve(inst)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("n=%d: plan differs between Parallelism 1 and %d:\n%v\nvs\n%v",
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
	direct := DirectedSearch{T: 4, Seed: 2, Parallelism: 4}.Solve(inst)
	viaMemo := DirectedSearch{T: 4, Seed: 2, Parallelism: 4}.Solve(wrapped)
	if !reflect.DeepEqual(direct, viaMemo) {
		t.Fatalf("plan changed under a pre-wrapped memo:\n%v\nvs\n%v", direct, viaMemo)
	}
}
