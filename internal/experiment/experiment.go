// Package experiment reproduces the paper's evaluation (§9): the
// probability that the Pair Merging heuristic finds the optimal solution
// and its distance to the optimum (Figures 16 and 17), the same metrics
// for the channel allocation heuristics under three initial distributions
// (Figures 18 and 19), and the Appendix 1 three-query cost table. Every
// run is deterministic for a given base seed.
package experiment

import (
	"fmt"
	"strings"

	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/workload"
)

// optEps is the relative tolerance under which a heuristic cost counts as
// "found the optimal solution".
const optEps = 1e-9

// estimator returns the size estimator the experiments use: uniform
// density over the workload's attribute space, so size(q) is proportional
// to query area exactly as in the paper's two-attribute simulator (§9).
func estimator() relation.Estimator {
	return relation.Uniform{Density: 0.05, BytesPerTuple: 32}
}

// Timing renders one wall-clock cell of a results table: v printed with
// verb. Timing cells are the only cells that differ between two runs of
// one seed. Every table writer renders them through Timing and nothing
// else does, so a caller that replaces it masks exactly those cells
// (cmd/qsubsim's golden test does). Not safe to change while a table is
// being rendered.
var Timing = func(verb string, v any) string { return fmt.Sprintf(verb, v) }

// MergeConfig parameterizes the Fig 16/17 experiment.
type MergeConfig struct {
	// Workload generates the query sets; its Seed is advanced per trial.
	Workload workload.Config
	// Model is the cost model. The paper tuned constants where the
	// heuristic struggles "in order not to get too optimistic results".
	Model cost.Model
	// MinQueries and MaxQueries bound the swept query counts (the paper
	// uses 3..12; 2 is omitted as trivially optimal).
	MinQueries, MaxQueries int
	// Trials is the number of workloads evaluated per query count.
	Trials int
	// Heuristic is the algorithm under test (default core.PairMerge).
	Heuristic core.Algorithm
	// Procedure is the merge procedure (default query.BoundingRect).
	Procedure query.MergeProcedure
}

// DefaultMergeConfig returns the parameters the harness uses to reproduce
// Figures 16 and 17.
// The constants were picked the way the paper describes (§9.3): swept
// until the heuristic is challenged — large K_M relative to K_U makes
// multi-way merges beneficial while pairwise decisions stay borderline,
// and a wide cluster spread (DF = 70) creates the partial-overlap chains
// that trap greedy pair merging.
func DefaultMergeConfig() MergeConfig {
	wl := workload.DefaultConfig()
	wl.DF = 70
	return MergeConfig{
		Workload:   wl,
		Model:      cost.Model{KM: 64000, KT: 1, KU: 0.5},
		MinQueries: 3,
		MaxQueries: 12,
		Trials:     100,
	}
}

// MergeResult is one row of the Fig 16/17 series: metrics for a fixed
// number of queries.
type MergeResult struct {
	// Queries is the instance size n.
	Queries int
	// Trials is the number of workloads evaluated.
	Trials int
	// OptimalFound is how many trials the heuristic matched the
	// Partition optimum.
	OptimalFound int
	// ProbOptimal is OptimalFound/Trials (Fig 16's y-axis).
	ProbOptimal float64
	// ProbOptimalCI is the half-width of ProbOptimal's 95% confidence
	// interval (normal approximation).
	ProbOptimalCI float64
	// AvgDistance is the mean §9.2 distance-to-optimal (Fig 17's
	// y-axis), over all trials.
	AvgDistance float64
	// AvgDistanceCI is the half-width of AvgDistance's 95% confidence
	// interval.
	AvgDistanceCI float64
	// MaxDistance is the worst observed distance.
	MaxDistance float64
}

// RunMergeOptimality sweeps the query count and measures the heuristic
// against the exhaustive Partition optimum, producing the data behind
// Figures 16 and 17.
func RunMergeOptimality(cfg MergeConfig) ([]MergeResult, error) {
	if cfg.Heuristic == nil {
		cfg.Heuristic = core.PairMerge{}
	}
	if cfg.Procedure == nil {
		cfg.Procedure = query.BoundingRect{}
	}
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: trials %d must be positive", cfg.Trials)
	}
	if cfg.MinQueries < 2 || cfg.MaxQueries < cfg.MinQueries {
		return nil, fmt.Errorf("experiment: invalid query range [%d,%d]", cfg.MinQueries, cfg.MaxQueries)
	}
	if cfg.MaxQueries > 13 {
		return nil, fmt.Errorf("experiment: %d queries is beyond the exhaustive baseline's reach (Bell numbers)", cfg.MaxQueries)
	}
	est := estimator()
	var out []MergeResult
	for n := cfg.MinQueries; n <= cfg.MaxQueries; n++ {
		res := MergeResult{Queries: n, Trials: cfg.Trials}
		var dist welford
		for trial := 0; trial < cfg.Trials; trial++ {
			wl := cfg.Workload
			wl.Seed = cfg.Workload.Seed + int64(n*10000+trial)
			gen, err := workload.NewGenerator(wl)
			if err != nil {
				return nil, err
			}
			qs := gen.Queries(n)
			inst := instrument(core.NewGeomInstance(cfg.Model, qs, cfg.Procedure, est))
			optimal := inst.Cost(core.Partition{}.Solve(inst))
			heuristic := inst.Cost(cfg.Heuristic.Solve(inst))
			initial := inst.InitialCost()
			d := core.Performance(initial, optimal, heuristic)
			dist.add(d)
			if d > res.MaxDistance {
				res.MaxDistance = d
			}
			if heuristic <= optimal*(1+optEps)+optEps {
				res.OptimalFound++
			}
		}
		res.ProbOptimal = float64(res.OptimalFound) / float64(res.Trials)
		res.ProbOptimalCI = binomialCI(res.ProbOptimal, res.Trials)
		res.AvgDistance, res.AvgDistanceCI = dist.meanCI()
		out = append(out, res)
	}
	return out, nil
}

// MergeSummary aggregates a Fig 16/17 sweep into the paper's headline
// averages ("On the average this probability is 97%", "On the average
// this value is 0.6343%").
func MergeSummary(rows []MergeResult) (probOptimal, avgDistance float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		probOptimal += r.ProbOptimal
		avgDistance += r.AvgDistance
	}
	return probOptimal / float64(len(rows)), avgDistance / float64(len(rows))
}

// FormatMergeTable renders the Fig 16/17 rows as an aligned text table.
func FormatMergeTable(rows []MergeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-18s %-20s %-14s\n",
		"queries", "trials", "P(optimal)", "avg distance", "max distance")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-8d %5.1f ±%-10.1f %7.4f ±%-10.4f %-14.4f\n",
			r.Queries, r.Trials, r.ProbOptimal*100, r.ProbOptimalCI*100,
			r.AvgDistance*100, r.AvgDistanceCI*100, r.MaxDistance*100)
	}
	p, d := MergeSummary(rows)
	fmt.Fprintf(&b, "average: P(optimal) %.1f%%, distance %.4f%%\n", p*100, d*100)
	return b.String()
}

// ChannelConfig parameterizes the Fig 18/19 experiment.
type ChannelConfig struct {
	// Workload generates queries; Seed advances per trial.
	Workload workload.Config
	// Model is the cost model; K6 should be positive so channel
	// allocation has real trade-offs (§7).
	Model cost.Model
	// Clients and Channels size the allocation problem; the exhaustive
	// optimum enumerates Stirling-many cases, so keep Clients ≤ 8.
	Clients, Channels int
	// QueriesPerClient is each client's subscription count.
	QueriesPerClient int
	// Trials is the number of workloads evaluated.
	Trials int
}

// DefaultChannelConfig returns the parameters the harness uses to
// reproduce Figures 18 and 19.
// The high K6 makes the per-listener filtering charge dominate, so
// grouping clients with overlapping queries on shared channels is the
// decisive trade-off (§7.2) and hill climbing gets stuck at the rates the
// paper reports.
func DefaultChannelConfig() ChannelConfig {
	wl := workload.DefaultConfig()
	wl.DF = 70
	return ChannelConfig{
		Workload:         wl,
		Model:            cost.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
		Clients:          6,
		Channels:         3,
		QueriesPerClient: 2,
		Trials:           100,
	}
}

// ChannelResult is one strategy's row in the Fig 18/19 comparison.
type ChannelResult struct {
	Strategy     chanalloc.Strategy
	Trials       int
	OptimalFound int
	// ProbOptimal is Fig 18's y-axis.
	ProbOptimal float64
	// AvgDistance is Fig 19's metric.
	AvgDistance float64
	MaxDistance float64
}

// RunChannelAllocation compares the three §8.2 heuristic strategies
// against the exhaustive allocation optimum, producing the data behind
// Figures 18 and 19.
func RunChannelAllocation(cfg ChannelConfig) ([]ChannelResult, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: trials %d must be positive", cfg.Trials)
	}
	if cfg.Clients < 2 || cfg.Clients > 9 {
		return nil, fmt.Errorf("experiment: clients %d outside exhaustive-feasible range [2,9]", cfg.Clients)
	}
	if cfg.Channels < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 channels, got %d", cfg.Channels)
	}
	if cfg.QueriesPerClient < 1 {
		return nil, fmt.Errorf("experiment: queries per client %d must be positive", cfg.QueriesPerClient)
	}
	est := estimator()
	strategies := []chanalloc.Strategy{chanalloc.SmartInit, chanalloc.RandomInit, chanalloc.BestOfBoth}
	results := make([]ChannelResult, len(strategies))
	for i, s := range strategies {
		results[i] = ChannelResult{Strategy: s, Trials: cfg.Trials}
	}
	sumDist := make([]float64, len(strategies))

	for trial := 0; trial < cfg.Trials; trial++ {
		wl := cfg.Workload
		wl.Seed = cfg.Workload.Seed + int64(trial)
		gen, err := workload.NewGenerator(wl)
		if err != nil {
			return nil, err
		}
		qs := gen.Queries(cfg.Clients * cfg.QueriesPerClient)
		inst := instrument(core.NewGeomInstance(cfg.Model, qs, query.BoundingRect{}, est))
		clients := gen.Clients(cfg.Clients, qs)
		// One Problem per trial: the exhaustive optimum and all three
		// strategies share its group-cost cache, so the heuristics mostly
		// replay groups the exhaustive search already solved.
		prob := instrumentProblem(&chanalloc.Problem{
			Inst:     inst,
			Clients:  clients,
			Channels: cfg.Channels,
		})
		_, opt, err := chanalloc.Exhaustive(prob)
		if err != nil {
			return nil, err
		}
		initial := initialChannelCost(prob)
		for i, s := range strategies {
			_, c, err := chanalloc.Heuristic(prob, s, wl.Seed)
			if err != nil {
				return nil, err
			}
			d := core.Performance(initial, opt, c)
			sumDist[i] += d
			if d > results[i].MaxDistance {
				results[i].MaxDistance = d
			}
			if c <= opt*(1+optEps)+optEps {
				results[i].OptimalFound++
			}
		}
	}
	for i := range results {
		results[i].ProbOptimal = float64(results[i].OptimalFound) / float64(results[i].Trials)
		results[i].AvgDistance = sumDist[i] / float64(results[i].Trials)
	}
	return results, nil
}

// initialChannelCost is the Cost_initial baseline for the §9.2 distance
// metric in the allocation experiments: clients assigned round-robin and
// no merging at all.
func initialChannelCost(p *chanalloc.Problem) float64 {
	noMerge := &chanalloc.Problem{
		Inst:     p.Inst,
		Clients:  p.Clients,
		Channels: p.Channels,
		Merger:   core.NoMerge{},
	}
	alloc := make(chanalloc.Allocation, len(p.Clients))
	for i := range alloc {
		alloc[i] = i % p.Channels
	}
	return chanalloc.Cost(noMerge, alloc)
}

// FormatChannelTable renders the Fig 18/19 rows as an aligned text table.
func FormatChannelTable(rows []ChannelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-8s %-14s %-16s %-14s\n",
		"strategy", "trials", "P(optimal)", "avg distance", "max distance")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-8d %-14.1f %-16.4f %-14.4f\n",
			r.Strategy, r.Trials, r.ProbOptimal*100, r.AvgDistance*100, r.MaxDistance*100)
	}
	return b.String()
}
