package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"qsub/internal/cost"
)

// DirectedSearch is the restart-based local search of §6.2.2. It runs T
// hill-climbing passes, each from a different random initial partition,
// and returns the best plan found. In each pass the algorithm considers
// two kinds of moves — merging two sets, and extracting one query from a
// set into its own singleton — and greedily applies the move that reduces
// total cost the most, repeating until no beneficial move exists.
//
// The first restart always starts from the all-singletons state so the
// result is never worse than PairMerge on the same instance modulo
// tie-breaking; the remaining T−1 restarts are random.
//
// Restarts are independent, so they run on a bounded worker pool. Each
// restart derives its own RNG from (Seed, restart index) and the winner
// is picked by (cost, restart index), so a fixed Seed yields the same
// plan at any GOMAXPROCS, which sizes the pool — including 1, the
// sequential path. All restarts share one concurrency-safe merged-size
// memo (cost.Memo), so a union probed by one restart is free for every
// other.
type DirectedSearch struct {
	// T is the number of restarts; zero means the default of 8.
	T int
	// Seed seeds the random initial states; runs are deterministic for
	// a fixed seed regardless of GOMAXPROCS.
	Seed int64
}

// Name returns "directed-search".
func (DirectedSearch) Name() string { return "directed-search" }

// restartRNG derives an independent deterministic RNG for one restart.
// splitmix64 over (seed, run) decorrelates the streams so neighboring
// restarts do not explore correlated partitions.
func restartRNG(seed int64, run int) *rand.Rand {
	z := uint64(seed) + uint64(run+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// Solve runs T greedy passes from varied starting partitions.
func (ds DirectedSearch) Solve(inst *Instance) Plan {
	t := ds.T
	if t == 0 {
		t = 8
	}
	if inst.N == 0 {
		return Plan{}
	}
	shared := memoized(inst)
	plans := make([]Plan, t)
	costs := make([]float64, t)
	runOne := func(run int) {
		// Anytime mode: once the budget trips, later restarts are
		// skipped entirely (nil plan, +Inf cost — never the winner).
		// Restart 0 always runs, so a valid plan is guaranteed even
		// when the budget expires immediately.
		if run > 0 && inst.Budget.Exhausted() {
			costs[run] = math.Inf(1)
			return
		}
		var start Plan
		if run == 0 {
			start = Singletons(inst.N)
		} else {
			start = randomPartition(inst.N, restartRNG(ds.Seed, run))
		}
		plans[run] = hillClimb(shared, start)
		costs[run] = shared.Cost(plans[run])
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > t {
		workers = t
	}
	if workers <= 1 {
		for run := 0; run < t; run++ {
			runOne(run)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for run := range next {
					runOne(run)
				}
			}()
		}
		for run := 0; run < t; run++ {
			next <- run
		}
		close(next)
		wg.Wait()
	}

	// Deterministic winner: lowest cost, earliest restart on ties —
	// independent of which worker finished first.
	best := 0
	for run := 1; run < t; run++ {
		if costs[run] < costs[best] {
			best = run
		}
	}
	if sm := inst.Metrics; sm != nil {
		sm.Restarts.Add(uint64(t))
		sm.ConvergenceCost.Observe(costs[best])
	}
	return plans[best].Normalize()
}

// randomPartition assigns each query independently to one of a random
// number of buckets, then drops empty buckets.
func randomPartition(n int, rng *rand.Rand) Plan {
	buckets := 1 + rng.Intn(n)
	tmp := make(Plan, buckets)
	for q := 0; q < n; q++ {
		b := rng.Intn(buckets)
		tmp[b] = append(tmp[b], q)
	}
	var out Plan
	for _, set := range tmp {
		if len(set) > 0 {
			out = append(out, set)
		}
	}
	return out
}

// hillClimb greedily applies the best merge-or-extract move until no move
// reduces the cost. Candidate unions and remainders are staged in reused
// scratch buffers; sizers must not retain the probe slice (the cost.Sizer
// contract), so no per-probe allocation is needed.
func hillClimb(inst *Instance, plan Plan) Plan {
	plan = plan.Clone()
	costs := make([]float64, len(plan))
	for i, set := range plan {
		costs[i] = cost.SetCost(inst.Model, inst.Sizer, set)
	}
	var scratch []int
	single := make([]int, 1)
	for {
		// One climb iteration scans O(len(plan)²) candidate moves;
		// charge the budget proportionally and return the current
		// (valid) partition when it trips — best-so-far semantics.
		if !inst.Budget.Step(int64(len(plan))) {
			return plan
		}
		type move struct {
			gain    float64
			mergeI  int
			mergeJ  int
			extract int // index into plan
			query   int // position within plan[extract]
		}
		best := move{mergeI: -1, extract: -1}

		// Merge moves: combine sets i and j.
		for i := 0; i < len(plan); i++ {
			for j := i + 1; j < len(plan); j++ {
				scratch = append(append(scratch[:0], plan[i]...), plan[j]...)
				gain := costs[i] + costs[j] - cost.SetCost(inst.Model, inst.Sizer, scratch)
				if gain > best.gain {
					best = move{gain: gain, mergeI: i, mergeJ: j, extract: -1}
				}
			}
		}
		// Extract moves: pull one query out of a multi-query set.
		for i, set := range plan {
			if len(set) < 2 {
				continue
			}
			for k := range set {
				scratch = append(append(scratch[:0], set[:k]...), set[k+1:]...)
				single[0] = set[k]
				newCost := cost.SetCost(inst.Model, inst.Sizer, scratch) +
					cost.SetCost(inst.Model, inst.Sizer, single)
				gain := costs[i] - newCost
				if gain > best.gain {
					best = move{gain: gain, mergeI: -1, extract: i, query: k}
				}
			}
		}

		switch {
		case best.mergeI >= 0:
			union := append(append([]int{}, plan[best.mergeI]...), plan[best.mergeJ]...)
			plan[best.mergeI] = union
			costs[best.mergeI] = cost.SetCost(inst.Model, inst.Sizer, union)
			last := len(plan) - 1
			plan[best.mergeJ] = plan[last]
			costs[best.mergeJ] = costs[last]
			plan = plan[:last]
			costs = costs[:last]
		case best.extract >= 0:
			set := plan[best.extract]
			q := set[best.query]
			rest := make([]int, 0, len(set)-1)
			rest = append(rest, set[:best.query]...)
			rest = append(rest, set[best.query+1:]...)
			plan[best.extract] = rest
			costs[best.extract] = cost.SetCost(inst.Model, inst.Sizer, rest)
			plan = append(plan, []int{q})
			costs = append(costs, cost.SetCost(inst.Model, inst.Sizer, []int{q}))
		default:
			return plan
		}
	}
}
