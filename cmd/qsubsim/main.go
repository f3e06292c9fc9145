// Command qsubsim runs the paper's evaluation suite (§9): the Fig 16/17
// pair-merging optimality sweep, the Fig 18/19 channel allocation
// comparison, and the Appendix 1 three-query cost table.
//
// Usage:
//
//	qsubsim -exp all                    # everything with default sizes
//	qsubsim -exp fig16 -trials 500      # a bigger merging sweep
//	qsubsim -exp fig18 -clients 7 -channels 3
//	qsubsim -exp appendix1
//
// `qsubsim -exp all -trials 200` (make experiments) is checked against
// testdata/experiments.golden by this package's test.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"qsub/internal/cost"
	"qsub/internal/experiment"
	"qsub/internal/metrics"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "qsubsim:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected experiments' tables to w.
func run(w io.Writer, args []string) error {
	r := runner{w: w}
	fs := flag.NewFlagSet("qsubsim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: fig16, fig17, fig18, fig19, appendix1, estimators, algos, scaling, sharding, replan, all")
	fs.IntVar(&r.trials, "trials", 0, "trials per configuration (0 = experiment default)")
	fs.IntVar(&r.minQ, "minq", 3, "minimum query count for the merging sweep")
	fs.IntVar(&r.maxQ, "maxq", 12, "maximum query count for the merging sweep")
	fs.IntVar(&r.clients, "clients", 6, "clients for the channel allocation experiment")
	fs.IntVar(&r.channels, "channels", 3, "channels for the channel allocation experiment")
	fs.IntVar(&r.qpc, "qpc", 2, "queries per client for the channel allocation experiment")
	fs.Int64Var(&r.seed, "seed", 1, "base workload seed")
	dumpMet := fs.Bool("metrics", false, "dump solver instrumentation (Prometheus text format) after the run")
	fs.IntVar(&r.shards, "shards", 0, "shard count for the sharding experiment (0 = sweep 1, 4, 16; rounded up to a power of two)")
	fs.BoolVar(&r.aggregate, "aggregate", true, "enable subscription aggregation in the sharding experiment")
	fs.DurationVar(&r.budget, "budget", 0, "anytime planning budget per sharding cell; best-so-far plan at the deadline (0 = unlimited)")
	fs.IntVar(&r.neighbors, "neighbors", 0, "prune merge candidates to each query's k nearest Z-order neighbors (0 = exact full table)")
	fs.StringVar(&r.csvDir, "csv", "", "also write raw series as CSV files into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dumpMet {
		// Channel-indexed vecs stay empty (the simulator never
		// publishes); solver and allocator counters are what matter here.
		experiment.Metrics = metrics.NewCatalog(0)
	}
	if r.csvDir != "" {
		if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
			return err
		}
	}

	var selected []func() error
	switch *exp {
	case "fig16", "fig17", "merge":
		selected = []func() error{r.merge}
	case "fig18", "fig19", "channel":
		selected = []func() error{r.channel}
	case "appendix1":
		selected = []func() error{r.appendix1}
	case "estimators":
		selected = []func() error{r.estimators}
	case "algos":
		selected = []func() error{r.algos}
	case "scaling":
		selected = []func() error{r.scaling}
	case "sharding":
		selected = []func() error{r.sharding}
	case "replan":
		selected = []func() error{r.replan}
	case "all":
		selected = []func() error{r.appendix1, r.merge, r.channel, r.estimators, r.algos, r.scaling, r.sharding, r.replan}
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := e(); err != nil {
			return err
		}
	}

	if *dumpMet {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "# solver instrumentation")
		return experiment.Metrics.Registry.WritePrometheus(w)
	}
	return nil
}

// runner renders experiments to w with the parameters its flags set and,
// when csvDir is set, also writes each series' raw data there.
type runner struct {
	w                      io.Writer
	csvDir                 string
	trials, minQ, maxQ     int
	clients, channels, qpc int
	seed                   int64
	shards, neighbors      int
	aggregate              bool
	budget                 time.Duration
}

// writeCSV writes one series to csvDir/name.csv when -csv is set.
func (r runner) writeCSV(name string, write func(f io.Writer) error) error {
	if r.csvDir == "" {
		return nil
	}
	path := filepath.Join(r.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "(raw data written to %s)\n", path)
	return nil
}

func (r runner) merge() error {
	cfg := experiment.DefaultMergeConfig()
	if r.trials > 0 {
		cfg.Trials = r.trials
	}
	cfg.MinQueries = r.minQ
	cfg.MaxQueries = r.maxQ
	cfg.Workload.Seed = r.seed
	fmt.Fprintf(r.w, "Figures 16+17: pair merging vs exhaustive optimum (paper: 97%% optimal, 0.63%% distance)\n")
	fmt.Fprintf(r.w, "workload: cf=%.2f sf=%.2f df=%.0f; model: K_M=%g K_T=%g K_U=%g; trials=%d\n",
		cfg.Workload.CF, cfg.Workload.SF, cfg.Workload.DF,
		cfg.Model.KM, cfg.Model.KT, cfg.Model.KU, cfg.Trials)
	rows, err := experiment.RunMergeOptimality(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatMergeTable(rows))
	return r.writeCSV("fig16_17_merge", func(f io.Writer) error { return experiment.WriteMergeCSV(f, rows) })
}

func (r runner) channel() error {
	cfg := experiment.DefaultChannelConfig()
	if r.trials > 0 {
		cfg.Trials = r.trials
	}
	cfg.Clients = r.clients
	cfg.Channels = r.channels
	cfg.QueriesPerClient = r.qpc
	cfg.Workload.Seed = r.seed
	fmt.Fprintf(r.w, "Figures 18+19: channel allocation heuristics vs exhaustive optimum\n")
	fmt.Fprintf(r.w, "(paper: smart 81.8%%, random 85.5%%, best-of-both 88.6%% optimal; 0.17%% distance)\n")
	fmt.Fprintf(r.w, "clients=%d channels=%d queries/client=%d; model: K_M=%g K_T=%g K_U=%g K6=%g; trials=%d\n",
		cfg.Clients, cfg.Channels, cfg.QueriesPerClient,
		cfg.Model.KM, cfg.Model.KT, cfg.Model.KU, cfg.Model.K6, cfg.Trials)
	rows, err := experiment.RunChannelAllocation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatChannelTable(rows))
	return r.writeCSV("fig18_19_channel", func(f io.Writer) error { return experiment.WriteChannelCSV(f, rows) })
}

func (r runner) estimators() error {
	cfg := experiment.DefaultEstimatorConfig()
	if r.trials > 0 {
		cfg.Trials = r.trials
	}
	cfg.Workload.Seed = r.seed
	fmt.Fprintln(r.w, "Estimator ablation: true-cost penalty of planning with approximate size(q)")
	fmt.Fprintf(r.w, "tuples=%d queries=%d trials=%d histogram=%dx%d\n",
		cfg.Tuples, cfg.Queries, cfg.Trials, cfg.HistogramGrid, cfg.HistogramGrid)
	rows, err := experiment.RunEstimatorAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatEstimatorTable(rows))
	return r.writeCSV("estimators", func(f io.Writer) error { return experiment.WriteEstimatorCSV(f, rows) })
}

func (r runner) algos() error {
	cfg := experiment.DefaultAlgoConfig()
	if r.trials > 0 {
		cfg.Trials = r.trials
	}
	cfg.Workload.Seed = r.seed
	fmt.Fprintf(r.w, "Algorithm comparison: heuristics vs the Partition optimum (n=%d, trials=%d)\n",
		cfg.Queries, cfg.Trials)
	rows, err := experiment.RunAlgoComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatAlgoTable(rows))
	return r.writeCSV("algos", func(f io.Writer) error { return experiment.WriteAlgoCSV(f, rows) })
}

func (r runner) scaling() error {
	fmt.Fprintln(r.w, "Duplicate-subscription scaling (§1): n identical queries, merged vs standard service")
	rows, err := experiment.RunScaling(experiment.DefaultScalingConfig())
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatScalingTable(rows))
	return nil
}

func (r runner) sharding() error {
	cfg := experiment.DefaultShardingConfig()
	cfg.Aggregate = r.aggregate
	cfg.Budget = r.budget
	cfg.Neighbors = r.neighbors
	if r.shards > 0 {
		bits := 0
		for 1<<bits < r.shards {
			bits++
		}
		cfg.ShardBits = []int{bits}
	}
	fmt.Fprintf(r.w, "Sharded planning scaling: aggregate %v, shards %v, %d%% near-duplicate workload\n",
		cfg.Aggregate, shardCounts(cfg.ShardBits), int(cfg.DupF*100))
	rows, err := experiment.RunSharding(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatShardingTable(rows))
	return r.writeCSV("sharding", func(f io.Writer) error { return experiment.WriteShardingCSV(f, rows) })
}

func shardCounts(bits []int) []int {
	out := make([]int, len(bits))
	for i, b := range bits {
		out[i] = 1 << b
	}
	return out
}

func (r runner) replan() error {
	cfg := experiment.DefaultReplanConfig()
	fmt.Fprintf(r.w, "Re-planning policy ablation under churn (%d periods, %d inserts/period into a hotspot)\n",
		cfg.Periods, cfg.ChurnPerPeriod)
	rows, err := experiment.RunReplanAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(r.w, experiment.FormatReplanTable(rows))
	return nil
}

func (r runner) appendix1() error {
	fmt.Fprintln(r.w, "Appendix 1: the 3-query example of Fig 6 (merge-all optimal, no pair beneficial)")
	fmt.Fprint(r.w, experiment.FormatAppendix1(experiment.Appendix1(cost.DefaultModel(), 1)))
	return nil
}
