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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qsub/internal/cost"
	"qsub/internal/experiment"
	"qsub/internal/metrics"
)

// csvDir, when set, receives one CSV file per experiment series.
var csvDir string

// writeCSV writes one series to csvDir/name.csv when -csv is set.
func writeCSV(name string, write func(f *os.File) error) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
	fmt.Printf("(raw data written to %s)\n", path)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: fig16, fig17, fig18, fig19, appendix1, estimators, algos, scaling, sharding, replan, interval, split, all")
		trials   = flag.Int("trials", 0, "trials per configuration (0 = experiment default)")
		minQ     = flag.Int("minq", 3, "minimum query count for the merging sweep")
		maxQ     = flag.Int("maxq", 12, "maximum query count for the merging sweep")
		clients  = flag.Int("clients", 6, "clients for the channel allocation experiment")
		channels = flag.Int("channels", 3, "channels for the channel allocation experiment")
		qpc      = flag.Int("qpc", 2, "queries per client for the channel allocation experiment")
		seed     = flag.Int64("seed", 1, "base workload seed")
		dumpMet  = flag.Bool("metrics", false, "dump solver instrumentation (Prometheus text format) after the run")
		shards   = flag.Int("shards", 0, "shard count for the sharding experiment (0 = sweep 1, 4, 16; rounded up to a power of two)")
		aggr     = flag.Bool("aggregate", true, "enable subscription aggregation in the sharding experiment")
		budget   = flag.Duration("budget", 0, "anytime planning budget per sharding cell; best-so-far plan at the deadline (0 = unlimited)")
		neigh    = flag.Int("neighbors", 0, "prune merge candidates to each query's k nearest Z-order neighbors (0 = exact full table)")
	)
	flag.StringVar(&csvDir, "csv", "", "also write raw series as CSV files into this directory")
	flag.Parse()
	if *dumpMet {
		// Channel-indexed vecs stay empty (the simulator never
		// publishes); solver and allocator counters are what matter here.
		experiment.Metrics = metrics.NewCatalog(0)
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	switch *exp {
	case "fig16", "fig17", "merge":
		runMerge(*trials, *minQ, *maxQ, *seed)
	case "fig18", "fig19", "channel":
		runChannel(*trials, *clients, *channels, *qpc, *seed)
	case "appendix1":
		runAppendix1()
	case "estimators":
		runEstimators(*trials, *seed)
	case "algos":
		runAlgos(*trials, *seed)
	case "scaling":
		runScaling()
	case "sharding":
		runSharding(*shards, *aggr, *budget, *neigh)
	case "replan":
		runReplan()
	case "interval":
		runInterval(*trials)
	case "split":
		runSplit(*trials)
	case "all":
		runAppendix1()
		fmt.Println()
		runMerge(*trials, *minQ, *maxQ, *seed)
		fmt.Println()
		runChannel(*trials, *clients, *channels, *qpc, *seed)
		fmt.Println()
		runEstimators(*trials, *seed)
		fmt.Println()
		runAlgos(*trials, *seed)
		fmt.Println()
		runScaling()
		fmt.Println()
		runSharding(*shards, *aggr, *budget, *neigh)
		fmt.Println()
		runReplan()
		fmt.Println()
		runInterval(*trials)
		fmt.Println()
		runSplit(*trials)
	default:
		fmt.Fprintf(os.Stderr, "qsubsim: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *dumpMet {
		fmt.Println()
		fmt.Println("# solver instrumentation")
		if err := experiment.Metrics.Registry.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func runMerge(trials, minQ, maxQ int, seed int64) {
	cfg := experiment.DefaultMergeConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	cfg.MinQueries = minQ
	cfg.MaxQueries = maxQ
	cfg.Workload.Seed = seed
	fmt.Printf("Figures 16+17: pair merging vs exhaustive optimum (paper: 97%% optimal, 0.63%% distance)\n")
	fmt.Printf("workload: cf=%.2f sf=%.2f df=%.0f; model: K_M=%g K_T=%g K_U=%g; trials=%d\n",
		cfg.Workload.CF, cfg.Workload.SF, cfg.Workload.DF,
		cfg.Model.KM, cfg.Model.KT, cfg.Model.KU, cfg.Trials)
	rows, err := experiment.RunMergeOptimality(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatMergeTable(rows))
	writeCSV("fig16_17_merge", func(f *os.File) error { return experiment.WriteMergeCSV(f, rows) })
}

func runChannel(trials, clients, channels, qpc int, seed int64) {
	cfg := experiment.DefaultChannelConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	cfg.Clients = clients
	cfg.Channels = channels
	cfg.QueriesPerClient = qpc
	cfg.Workload.Seed = seed
	fmt.Printf("Figures 18+19: channel allocation heuristics vs exhaustive optimum\n")
	fmt.Printf("(paper: smart 81.8%%, random 85.5%%, best-of-both 88.6%% optimal; 0.17%% distance)\n")
	fmt.Printf("clients=%d channels=%d queries/client=%d; model: K_M=%g K_T=%g K_U=%g K6=%g; trials=%d\n",
		cfg.Clients, cfg.Channels, cfg.QueriesPerClient,
		cfg.Model.KM, cfg.Model.KT, cfg.Model.KU, cfg.Model.K6, cfg.Trials)
	rows, err := experiment.RunChannelAllocation(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatChannelTable(rows))
	writeCSV("fig18_19_channel", func(f *os.File) error { return experiment.WriteChannelCSV(f, rows) })
}

func runEstimators(trials int, seed int64) {
	cfg := experiment.DefaultEstimatorConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	cfg.Workload.Seed = seed
	fmt.Println("Estimator ablation: true-cost penalty of planning with approximate size(q)")
	fmt.Printf("tuples=%d queries=%d trials=%d histogram=%dx%d\n",
		cfg.Tuples, cfg.Queries, cfg.Trials, cfg.HistogramGrid, cfg.HistogramGrid)
	rows, err := experiment.RunEstimatorAblation(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatEstimatorTable(rows))
	writeCSV("estimators", func(f *os.File) error { return experiment.WriteEstimatorCSV(f, rows) })
}

func runAlgos(trials int, seed int64) {
	cfg := experiment.DefaultAlgoConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	cfg.Workload.Seed = seed
	fmt.Printf("Algorithm comparison: heuristics vs the Partition optimum (n=%d, trials=%d)\n",
		cfg.Queries, cfg.Trials)
	rows, err := experiment.RunAlgoComparison(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatAlgoTable(rows))
	writeCSV("algos", func(f *os.File) error { return experiment.WriteAlgoCSV(f, rows) })
}

func runScaling() {
	fmt.Println("Duplicate-subscription scaling (§1): n identical queries, merged vs standard service")
	rows, err := experiment.RunScaling(experiment.DefaultScalingConfig())
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatScalingTable(rows))
}

func runSharding(shards int, aggregate bool, budget time.Duration, neighbors int) {
	cfg := experiment.DefaultShardingConfig()
	cfg.Aggregate = aggregate
	cfg.Budget = budget
	cfg.Neighbors = neighbors
	if shards > 0 {
		bits := 0
		for 1<<bits < shards {
			bits++
		}
		cfg.ShardBits = []int{bits}
	}
	fmt.Printf("Sharded planning scaling: aggregate %v, shards %v, %d%% near-duplicate workload\n",
		cfg.Aggregate, shardCounts(cfg.ShardBits), int(cfg.DupF*100))
	rows, err := experiment.RunSharding(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatShardingTable(rows))
	writeCSV("sharding", func(f *os.File) error { return experiment.WriteShardingCSV(f, rows) })
}

func shardCounts(bits []int) []int {
	out := make([]int, len(bits))
	for i, b := range bits {
		out[i] = 1 << b
	}
	return out
}

func runReplan() {
	cfg := experiment.DefaultReplanConfig()
	fmt.Printf("Re-planning policy ablation under churn (%d periods, %d inserts/period into a hotspot)\n",
		cfg.Periods, cfg.ChurnPerPeriod)
	rows, err := experiment.RunReplanAblation(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatReplanTable(rows))
}

func runInterval(trials int) {
	cfg := experiment.DefaultIntervalConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	fmt.Printf("1-D interval specialization: contiguous DP vs generic algorithms (n=%d, proper families, trials=%d)\n",
		cfg.Intervals, cfg.Trials)
	rows, err := experiment.RunIntervalComparison(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatIntervalTable(rows))
}

func runSplit(trials int) {
	cfg := experiment.DefaultSplitConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	fmt.Printf("Query splitting (§11): coverage-based transmission elimination (n=%d, trials=%d)\n",
		cfg.Queries, cfg.Trials)
	fmt.Println("tiled sectors (splitting's target regime):")
	res, err := experiment.RunSplitMeasurement(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatSplitResult(res))
	cfg.Tiled = false
	fmt.Println("random clustered workload:")
	res, err = experiment.RunSplitMeasurement(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(experiment.FormatSplitResult(res))
}

func runAppendix1() {
	fmt.Println("Appendix 1: the 3-query example of Fig 6 (merge-all optimal, no pair beneficial)")
	fmt.Print(experiment.FormatAppendix1(experiment.Appendix1(cost.DefaultModel(), 1)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsubsim:", err)
	os.Exit(1)
}
