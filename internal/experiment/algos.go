package experiment

import (
	"fmt"
	"strings"
	"time"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/query"
	"qsub/internal/workload"
)

// AlgoConfig parameterizes the heuristic shoot-out: every algorithm in
// the suite against the exhaustive Partition optimum on the same
// workloads.
type AlgoConfig struct {
	Workload workload.Config
	Model    cost.Model
	// Queries per instance; must stay within Partition's reach.
	Queries int
	Trials  int
}

// DefaultAlgoConfig returns the comparison defaults (the calibrated
// evaluation regime at the hardest feasible size).
func DefaultAlgoConfig() AlgoConfig {
	wl := workload.DefaultConfig()
	wl.DF = 70
	return AlgoConfig{
		Workload: wl,
		Model:    cost.Model{KM: 64000, KT: 1, KU: 0.5},
		Queries:  10,
		Trials:   50,
	}
}

// AlgoResult is one algorithm's aggregate over the trials.
type AlgoResult struct {
	Name        string
	ProbOptimal float64
	AvgDistance float64
	// AvgRuntime is the mean wall-clock per Solve call.
	AvgRuntime time.Duration
}

// RunAlgoComparison measures every heuristic in the suite against the
// Partition optimum.
func RunAlgoComparison(cfg AlgoConfig) ([]AlgoResult, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: trials %d must be positive", cfg.Trials)
	}
	if cfg.Queries < 3 || cfg.Queries > 13 {
		return nil, fmt.Errorf("experiment: %d queries outside Partition's reach [3,13]", cfg.Queries)
	}
	est := estimator()
	type entry struct {
		algo    core.Algorithm
		name    string
		optimal int
		dist    float64
		elapsed time.Duration
	}
	entries := []*entry{
		{name: "pair-merge", algo: core.PairMerge{}},
		{name: "directed-search", algo: core.DirectedSearch{T: 8, Seed: 1}},
		{name: "clustering", algo: core.Clustering{ExactThreshold: 8}},
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		wl := cfg.Workload
		wl.Seed = cfg.Workload.Seed + int64(trial)
		gen, err := workload.NewGenerator(wl)
		if err != nil {
			return nil, err
		}
		qs := gen.Queries(cfg.Queries)
		inst := instrument(core.NewGeomInstance(cfg.Model, qs, query.BoundingRect{}, est))
		optimal := inst.Cost(core.Partition{}.Solve(inst))
		initial := inst.InitialCost()
		for _, e := range entries {
			start := time.Now()
			plan := e.algo.Solve(inst)
			e.elapsed += time.Since(start)
			c := inst.Cost(plan)
			if c <= optimal*(1+optEps)+optEps {
				e.optimal++
			}
			e.dist += core.Performance(initial, optimal, c)
		}
	}

	out := make([]AlgoResult, len(entries))
	for i, e := range entries {
		out[i] = AlgoResult{
			Name:        e.name,
			ProbOptimal: float64(e.optimal) / float64(cfg.Trials),
			AvgDistance: e.dist / float64(cfg.Trials),
			AvgRuntime:  e.elapsed / time.Duration(cfg.Trials),
		}
	}
	return out, nil
}

// FormatAlgoTable renders the comparison rows.
func FormatAlgoTable(rows []AlgoResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-14s %-16s %-12s\n", "algorithm", "P(optimal)", "avg distance", "time/solve")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-14.1f %-16.4f %-12s\n",
			r.Name, r.ProbOptimal*100, r.AvgDistance*100, Timing("%v", r.AvgRuntime.Round(time.Microsecond)))
	}
	return b.String()
}
