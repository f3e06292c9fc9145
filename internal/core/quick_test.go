package core

import (
	"math"
	"math/rand"
	"testing"

	"qsub/internal/cost"
)

// randomAbstractInstance builds a non-geometric instance with a random
// monotone merged-size function: MergedSize(S) = max over S of a base
// size plus a pairwise "spread" penalty, which is monotone by
// construction. This exercises the algorithms away from the rectangle
// world.
func randomAbstractInstance(rng *rand.Rand, n int, model cost.Model) *Instance {
	base := make([]float64, n)
	pos := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64()*100 + 1
		pos[i] = rng.Float64() * 1000
	}
	merged := func(set []int) float64 {
		maxBase, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		sum := 0.0
		for _, q := range set {
			sum += base[q]
			if base[q] > maxBase {
				maxBase = base[q]
			}
			if pos[q] < lo {
				lo = pos[q]
			}
			if pos[q] > hi {
				hi = pos[q]
			}
		}
		// Span-dependent growth keeps the function monotone: adding a
		// query can only widen [lo, hi] and increase the max.
		return math.Max(sum*0.4, maxBase) + (hi - lo)
	}
	return &Instance{
		N:     n,
		Model: model,
		Sizer: cost.Func{
			SizeFn:   func(i int) float64 { return merged([]int{i}) },
			MergedFn: merged,
		},
	}
}

func TestAbstractInstancesAlgorithmEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		model := cost.Model{
			KM: rng.Float64() * 500,
			KT: rng.Float64() * 3,
			KU: rng.Float64(),
		}
		inst := randomAbstractInstance(rng, n, model)
		optimal := inst.Cost(Partition{}.Solve(inst))
		initial := inst.InitialCost()
		for _, algo := range []Algorithm{
			PairMerge{},
			DirectedSearch{T: 4, Seed: int64(trial)},
			Anneal{Steps: 300, Seed: int64(trial)},
			Clustering{},
		} {
			plan := algo.Solve(inst)
			if !plan.IsPartition(n) {
				t.Fatalf("trial %d: %s produced non-partition %v", trial, algo.Name(), plan)
			}
			c := inst.Cost(plan)
			if c < optimal-1e-6 {
				t.Fatalf("trial %d: %s cost %g beats 'optimal' %g — Partition is wrong",
					trial, algo.Name(), c, optimal)
			}
			if c > initial+1e-6 {
				t.Fatalf("trial %d: %s cost %g exceeds initial %g", trial, algo.Name(), c, initial)
			}
		}
	}
}

func TestAbstractMergedSizeMonotone(t *testing.T) {
	// Validate the generator's own invariant so the other tests stand
	// on firm ground.
	rng := rand.New(rand.NewSource(51))
	inst := randomAbstractInstance(rng, 10, cost.Model{KM: 1, KT: 1, KU: 1})
	for trial := 0; trial < 200; trial++ {
		var sub, super []int
		for q := 0; q < 10; q++ {
			if rng.Intn(2) == 0 {
				super = append(super, q)
				if rng.Intn(2) == 0 {
					sub = append(sub, q)
				}
			}
		}
		if len(sub) == 0 {
			continue
		}
		if inst.Sizer.MergedSize(sub) > inst.Sizer.MergedSize(super)+1e-9 {
			t.Fatalf("generator broke monotonicity: %v vs %v", sub, super)
		}
	}
}

func TestPairMergeTerminatesOnAdversarialSizes(t *testing.T) {
	// Zero and equal sizes, zero-cost models: degenerate but legal
	// inputs must terminate and return valid partitions.
	cases := []struct {
		name  string
		model cost.Model
		size  float64
	}{
		{"all zero sizes", cost.Model{KM: 5, KT: 1, KU: 1}, 0},
		{"zero model", cost.Model{}, 10},
		{"km only", cost.Model{KM: 100}, 10},
		{"kt only", cost.Model{KT: 1}, 10},
	}
	for _, c := range cases {
		inst := &Instance{
			N:     6,
			Model: c.model,
			Sizer: cost.Func{
				SizeFn:   func(int) float64 { return c.size },
				MergedFn: func([]int) float64 { return c.size },
			},
		}
		for _, algo := range []Algorithm{PairMerge{}, Partition{}, DirectedSearch{T: 2, Seed: 1}} {
			plan := algo.Solve(inst)
			if !plan.IsPartition(6) {
				t.Fatalf("%s/%s produced invalid plan %v", c.name, algo.Name(), plan)
			}
		}
	}
}
