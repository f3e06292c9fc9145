package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/relation"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// ShardingRow measures the sharded planning pipeline at one
// (subscriptions, shards) grid point.
type ShardingRow struct {
	N      int
	Shards int
	// Reps and Collapsed describe what aggregation did.
	Reps, Collapsed int
	// PlanSeconds is the end-to-end pipeline wall time (aggregate →
	// shard → solve → stitch).
	PlanSeconds float64
	// EstimatedCost and InitialCost are the model costs of the stitched
	// plan and the no-merging baseline.
	EstimatedCost, InitialCost float64
	// Savings is InitialCost / EstimatedCost.
	Savings float64
}

// ShardingConfig parameterizes the scaling grid.
type ShardingConfig struct {
	Model cost.Model
	// Sizes are the subscription counts to sweep.
	Sizes []int
	// ShardBits are the Morton prefix widths to sweep (2^bits shards).
	ShardBits []int
	// DupF is the workload's near-duplicate fraction.
	DupF float64
	// Aggregate toggles the aggregation pass.
	Aggregate bool
	// Budget caps each cell's planning wall time (anytime mode); the
	// pipeline returns its best-so-far plan at the deadline. Zero means
	// unlimited.
	Budget time.Duration
	// Neighbors prunes merge candidates to each query's k nearest
	// Z-order neighbors (0 = the exact full candidate table).
	Neighbors int
	Seed      int64
}

// DefaultShardingConfig returns the EXPERIMENTS.md grid: n ∈ {1k, 10k,
// 100k} × shards ∈ {1, 4, 16}, clustered workload with 30%
// near-duplicates, aggregation on.
func DefaultShardingConfig() ShardingConfig {
	return ShardingConfig{
		Model:     cost.DefaultModel(),
		Sizes:     []int{1000, 10000, 100000},
		ShardBits: []int{0, 2, 4},
		DupF:      0.3,
		Aggregate: true,
		Seed:      42,
	}
}

// RunSharding sweeps the grid. Each cell plans one workload of n
// clustered subscriptions (one client per 50 queries) through the full
// sharded pipeline and records wall time alongside plan quality, so the
// table shows both the speedup and what it costs in plan cost.
func RunSharding(cfg ShardingConfig) ([]ShardingRow, error) {
	if len(cfg.Sizes) == 0 || len(cfg.ShardBits) == 0 {
		return nil, fmt.Errorf("experiment: invalid sharding config %+v", cfg)
	}
	est := relation.Uniform{Density: 0.05, BytesPerTuple: 32}
	var out []ShardingRow
	for _, n := range cfg.Sizes {
		if n < 1 {
			return nil, fmt.Errorf("experiment: size %d must be positive", n)
		}
		wcfg := workload.DefaultConfig()
		wcfg.Seed = cfg.Seed
		wcfg.DupF = cfg.DupF
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			return nil, err
		}
		qs := gen.Queries(n)
		clients := gen.Clients(n/50+1, qs)
		for _, bits := range cfg.ShardBits {
			p := &shard.Problem{
				Queries:   qs,
				Clients:   clients,
				Channels:  1,
				Model:     cfg.Model,
				Estimator: est,
				Algorithm: core.PairMerge{Neighbors: cfg.Neighbors},
				Budget:    core.NewBudget(cfg.Budget, 0),
				Config: shard.Config{
					ShardBits: bits,
					Aggregate: cfg.Aggregate,
				},
			}
			start := time.Now()
			res, err := shard.Plan(p)
			if err != nil {
				return nil, err
			}
			row := ShardingRow{
				N:             n,
				Shards:        1 << uint(bits),
				Reps:          res.Stats.Reps,
				Collapsed:     res.Stats.Collapsed,
				PlanSeconds:   time.Since(start).Seconds(),
				EstimatedCost: res.EstimatedCost,
				InitialCost:   res.InitialCost,
			}
			if row.EstimatedCost > 0 {
				row.Savings = row.InitialCost / row.EstimatedCost
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatShardingTable renders the grid.
func FormatShardingTable(rows []ShardingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-8s %-10s %-10s %-14s %-10s\n",
		"n", "shards", "reps", "collapsed", "plan (s)", "plan cost", "savings")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-8d %-8d %-10d %-10.3f %-14.0f %.1fx\n",
			r.N, r.Shards, r.Reps, r.Collapsed, r.PlanSeconds, r.EstimatedCost, r.Savings)
	}
	return b.String()
}

// WriteShardingCSV writes the grid as CSV.
func WriteShardingCSV(w io.Writer, rows []ShardingRow) error {
	if _, err := fmt.Fprintln(w, "n,shards,reps,collapsed,plan_seconds,estimated_cost,initial_cost,savings"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.6f,%.2f,%.2f,%.3f\n",
			r.N, r.Shards, r.Reps, r.Collapsed, r.PlanSeconds, r.EstimatedCost, r.InitialCost, r.Savings); err != nil {
			return err
		}
	}
	return nil
}
