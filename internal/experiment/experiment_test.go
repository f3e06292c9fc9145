package experiment

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/cost"
	"qsub/internal/metrics"
)

// smallMerge returns a cheap Fig 16/17 configuration for tests.
func smallMerge() MergeConfig {
	cfg := DefaultMergeConfig()
	cfg.MinQueries = 3
	cfg.MaxQueries = 7
	cfg.Trials = 12
	return cfg
}

func TestRunMergeOptimalityShape(t *testing.T) {
	rows, err := RunMergeOptimality(smallMerge())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, r := range rows {
		if r.Queries != 3+i {
			t.Fatalf("row %d has Queries=%d", i, r.Queries)
		}
		if r.ProbOptimal < 0 || r.ProbOptimal > 1 {
			t.Fatalf("ProbOptimal %g outside [0,1]", r.ProbOptimal)
		}
		if r.AvgDistance < 0 || r.AvgDistance > 1 {
			t.Fatalf("AvgDistance %g outside [0,1]", r.AvgDistance)
		}
		if r.MaxDistance < r.AvgDistance {
			t.Fatalf("MaxDistance %g below AvgDistance %g", r.MaxDistance, r.AvgDistance)
		}
	}
}

func TestMergeExperimentMatchesPaperShape(t *testing.T) {
	// The paper reports pair merging finding the optimum ~97% of the
	// time with ~0.63% average distance. Exact numbers depend on their
	// unpublished constants; we assert the qualitative shape: mostly
	// optimal, small distance.
	rows, err := RunMergeOptimality(smallMerge())
	if err != nil {
		t.Fatal(err)
	}
	p, d := MergeSummary(rows)
	if p < 0.75 {
		t.Fatalf("P(optimal) = %.2f, expected the heuristic to be mostly optimal", p)
	}
	if d > 0.10 {
		t.Fatalf("avg distance = %.4f, expected a small distance to optimal", d)
	}
	// And it must not be vacuously perfect across every count, or the
	// workload/constants are too easy to be informative.
	perfect := true
	for _, r := range rows {
		if r.OptimalFound != r.Trials {
			perfect = false
		}
	}
	if perfect {
		t.Log("warning: heuristic optimal in every trial; constants may be too easy")
	}
}

func TestRunMergeOptimalityValidation(t *testing.T) {
	cfg := smallMerge()
	cfg.Trials = 0
	if _, err := RunMergeOptimality(cfg); err == nil {
		t.Fatal("zero trials should be rejected")
	}
	cfg = smallMerge()
	cfg.MaxQueries = 2
	if _, err := RunMergeOptimality(cfg); err == nil {
		t.Fatal("max below min should be rejected")
	}
	cfg = smallMerge()
	cfg.MaxQueries = 20
	if _, err := RunMergeOptimality(cfg); err == nil {
		t.Fatal("infeasible exhaustive range should be rejected")
	}
}

func TestRunMergeOptimalityDeterministic(t *testing.T) {
	a, err := RunMergeOptimality(smallMerge())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMergeOptimality(smallMerge())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between identical runs", i)
		}
	}
}

func smallChannel() ChannelConfig {
	cfg := DefaultChannelConfig()
	cfg.Clients = 5
	cfg.Channels = 2
	cfg.Trials = 10
	return cfg
}

func TestRunChannelAllocationShape(t *testing.T) {
	rows, err := RunChannelAllocation(smallChannel())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d strategies, want 3", len(rows))
	}
	var smart, random, both ChannelResult
	for _, r := range rows {
		switch r.Strategy {
		case chanalloc.SmartInit:
			smart = r
		case chanalloc.RandomInit:
			random = r
		case chanalloc.BestOfBoth:
			both = r
		}
		if r.ProbOptimal < 0 || r.ProbOptimal > 1 {
			t.Fatalf("%v ProbOptimal %g outside [0,1]", r.Strategy, r.ProbOptimal)
		}
	}
	// Fig 18's structural finding: best-of-both dominates each single
	// strategy.
	if both.ProbOptimal < smart.ProbOptimal || both.ProbOptimal < random.ProbOptimal {
		t.Fatalf("best-of-both P(opt) %.2f below smart %.2f or random %.2f",
			both.ProbOptimal, smart.ProbOptimal, random.ProbOptimal)
	}
	if both.AvgDistance > smart.AvgDistance+1e-12 || both.AvgDistance > random.AvgDistance+1e-12 {
		t.Fatalf("best-of-both distance %.4f above smart %.4f or random %.4f",
			both.AvgDistance, smart.AvgDistance, random.AvgDistance)
	}
}

func TestRunChannelAllocationValidation(t *testing.T) {
	cfg := smallChannel()
	cfg.Trials = 0
	if _, err := RunChannelAllocation(cfg); err == nil {
		t.Fatal("zero trials should be rejected")
	}
	cfg = smallChannel()
	cfg.Clients = 30
	if _, err := RunChannelAllocation(cfg); err == nil {
		t.Fatal("too many clients for exhaustive baseline should be rejected")
	}
	cfg = smallChannel()
	cfg.Channels = 1
	if _, err := RunChannelAllocation(cfg); err == nil {
		t.Fatal("single channel should be rejected")
	}
	cfg = smallChannel()
	cfg.QueriesPerClient = 0
	if _, err := RunChannelAllocation(cfg); err == nil {
		t.Fatal("zero queries per client should be rejected")
	}
}

func TestAppendix1ReproducesPaperClaim(t *testing.T) {
	res := Appendix1(cost.DefaultModel(), 1)
	if !res.ClaimHolds {
		t.Fatalf("Appendix 1 claim should hold with the paper constants: %+v", res.Rows)
	}
	// Check the published cost expressions (with the corrected
	// "merge q1,q3" arithmetic; see the cost package tests).
	m := res.Model
	want := []float64{
		3*m.KM + 5*m.KT,          // no merging
		2*m.KM + 5*m.KT + 4*m.KU, // merge q1,q2
		2*m.KM + 6*m.KT + 5*m.KU, // merge q1,q3
		2*m.KM + 6*m.KT + 5*m.KU, // merge q2,q3
		m.KM + 4*m.KT + 7*m.KU,   // merge all
	}
	for i, w := range want {
		if got := res.Rows[i].Cost; got != w {
			t.Errorf("%s: cost %g, want %g", res.Rows[i].Name, got, w)
		}
	}
}

func TestAppendix1ClaimFailsOutsideRegion(t *testing.T) {
	// With S far above the Equation 1 upper bound merging all is no
	// longer beneficial.
	res := Appendix1(cost.DefaultModel(), 10)
	if res.ClaimHolds {
		t.Fatal("claim should fail for S far outside the Equation 1 region")
	}
}

func TestFormatters(t *testing.T) {
	rows, err := RunMergeOptimality(MergeConfig{
		Workload:   smallMerge().Workload,
		Model:      smallMerge().Model,
		MinQueries: 3, MaxQueries: 4, Trials: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := FormatMergeTable(rows)
	if !strings.Contains(tbl, "P(optimal)") || !strings.Contains(tbl, "average:") {
		t.Fatalf("merge table missing headers:\n%s", tbl)
	}
	crows, err := RunChannelAllocation(ChannelConfig{
		Workload: smallChannel().Workload,
		Model:    smallChannel().Model,
		Clients:  4, Channels: 2, QueriesPerClient: 1, Trials: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctbl := FormatChannelTable(crows)
	if !strings.Contains(ctbl, "smart-init") || !strings.Contains(ctbl, "best-of-both") {
		t.Fatalf("channel table missing strategies:\n%s", ctbl)
	}
	a1 := FormatAppendix1(Appendix1(cost.DefaultModel(), 1))
	if !strings.Contains(a1, "merge all") {
		t.Fatalf("appendix table missing rows:\n%s", a1)
	}
}

func TestEstimatorAblation(t *testing.T) {
	cfg := DefaultEstimatorConfig()
	cfg.Trials = 5
	cfg.Tuples = 4000
	cfg.Queries = 8
	rows, err := RunEstimatorAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byName := map[string]EstimatorResult{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.AvgTrueCostRatio < 0.99 {
			t.Fatalf("%s: avg ratio %g below 1 — exact-informed planning beaten, baseline broken",
				r.Name, r.AvgTrueCostRatio)
		}
	}
	// The histogram should track skewed data at least as well as the
	// uniform assumption on average.
	if byName["histogram"].AvgTrueCostRatio > byName["uniform"].AvgTrueCostRatio+0.05 {
		t.Fatalf("histogram (%g) should not be much worse than uniform (%g)",
			byName["histogram"].AvgTrueCostRatio, byName["uniform"].AvgTrueCostRatio)
	}
	tbl := FormatEstimatorTable(rows)
	if !strings.Contains(tbl, "histogram") {
		t.Fatalf("table missing rows:\n%s", tbl)
	}
}

func TestEstimatorAblationValidation(t *testing.T) {
	cfg := DefaultEstimatorConfig()
	cfg.Trials = 0
	if _, err := RunEstimatorAblation(cfg); err == nil {
		t.Fatal("zero trials should be rejected")
	}
}

func TestAlgoComparison(t *testing.T) {
	cfg := DefaultAlgoConfig()
	cfg.Trials = 10
	cfg.Queries = 8
	rows, err := RunAlgoComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.ProbOptimal < 0 || r.ProbOptimal > 1 {
			t.Fatalf("%s: P(optimal) %g outside [0,1]", r.Name, r.ProbOptimal)
		}
		if r.AvgDistance < -1e-9 {
			t.Fatalf("%s: negative distance %g", r.Name, r.AvgDistance)
		}
	}
	tbl := FormatAlgoTable(rows)
	for _, name := range []string{"pair-merge", "anneal", "zorder-sweep"} {
		if !strings.Contains(tbl, name) {
			t.Fatalf("table missing %s:\n%s", name, tbl)
		}
	}
}

// TestMetricsHookCountsSolverWork: with the package catalog set (what
// `qsubsim -metrics` does), the algorithm comparison moves the solver
// instruments only DirectedSearch and Clustering write, which no daemon
// configuration runs.
func TestMetricsHookCountsSolverWork(t *testing.T) {
	Metrics = metrics.NewCatalog(0)
	defer func() { Metrics = nil }()
	cfg := DefaultAlgoConfig()
	cfg.Trials = 2
	cfg.Queries = 8
	if _, err := RunAlgoComparison(cfg); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]uint64{
		"qsub_solver_restarts_total":   Metrics.SolverRestarts.Load(),
		"qsub_solver_components_total": Metrics.SolverComponents.Load(),
		"qsub_solver_convergence_cost": Metrics.SolverConvergenceCost.Count(),
		"qsub_solver_heap_pops_total":  Metrics.SolverHeapPops.Load(),
	} {
		if v == 0 {
			t.Errorf("%s did not move", name)
		}
	}
}

func TestAlgoComparisonValidation(t *testing.T) {
	cfg := DefaultAlgoConfig()
	cfg.Queries = 20
	if _, err := RunAlgoComparison(cfg); err == nil {
		t.Fatal("infeasible query count should be rejected")
	}
	cfg = DefaultAlgoConfig()
	cfg.Trials = 0
	if _, err := RunAlgoComparison(cfg); err == nil {
		t.Fatal("zero trials should be rejected")
	}
}

func TestCSVWriters(t *testing.T) {
	mrows, err := RunMergeOptimality(MergeConfig{
		Workload: smallMerge().Workload, Model: smallMerge().Model,
		MinQueries: 3, MaxQueries: 4, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMergeCSV(&buf, mrows); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 { // header + 2 rows
		t.Fatalf("merge CSV has %d records, want 3", len(records))
	}
	if records[0][0] != "queries" {
		t.Fatalf("merge CSV header = %v", records[0])
	}

	crows, err := RunChannelAllocation(ChannelConfig{
		Workload: smallChannel().Workload, Model: smallChannel().Model,
		Clients: 4, Channels: 2, QueriesPerClient: 1, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteChannelCSV(&buf, crows); err != nil {
		t.Fatal(err)
	}
	records, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 strategies
		t.Fatalf("channel CSV has %d records, want 4", len(records))
	}

	arows, err := RunAlgoComparison(AlgoConfig{
		Workload: smallMerge().Workload, Model: smallMerge().Model,
		Queries: 5, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteAlgoCSV(&buf, arows); err != nil {
		t.Fatal(err)
	}
	if records, _ := csv.NewReader(&buf).ReadAll(); len(records) != 6 {
		t.Fatalf("algo CSV has %d records, want 6", len(records))
	}

	erows := []EstimatorResult{{Name: "exact", AvgTrueCostRatio: 1, MaxTrueCostRatio: 1}}
	buf.Reset()
	if err := WriteEstimatorCSV(&buf, erows); err != nil {
		t.Fatal(err)
	}
	if records, _ := csv.NewReader(&buf).ReadAll(); len(records) != 2 {
		t.Fatalf("estimator CSV has %d records, want 2", len(records))
	}
}

func TestScalingSweep(t *testing.T) {
	rows, err := RunScaling(DefaultScalingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.MergedMessages != 1 {
			t.Fatalf("fanout %d: merged into %d messages, want 1", r.Clients, r.MergedMessages)
		}
		if r.UnmergedMessages != r.Clients {
			t.Fatalf("fanout %d: unmerged messages %d", r.Clients, r.UnmergedMessages)
		}
		if i > 0 && r.SavingsFactor <= rows[i-1].SavingsFactor {
			t.Fatalf("savings should grow with fanout: %v", rows)
		}
	}
	// Identical queries: merged cost is exactly one query's cost, so the
	// savings factor equals the fanout.
	last := rows[len(rows)-1]
	if got, want := last.SavingsFactor, float64(last.Clients); got != want {
		t.Fatalf("savings factor %g, want exactly %g for identical queries", got, want)
	}
	if !strings.Contains(FormatScalingTable(rows), "savings") {
		t.Fatal("table missing header")
	}
}

func TestScalingValidation(t *testing.T) {
	cfg := DefaultScalingConfig()
	cfg.Fanouts = nil
	if _, err := RunScaling(cfg); err == nil {
		t.Fatal("empty fanouts should be rejected")
	}
	cfg = DefaultScalingConfig()
	cfg.Fanouts = []int{0}
	if _, err := RunScaling(cfg); err == nil {
		t.Fatal("zero fanout should be rejected")
	}
}

func TestReplanAblation(t *testing.T) {
	cfg := DefaultReplanConfig()
	cfg.Periods = 15
	cfg.ChurnPerPeriod = 300
	rows, err := RunReplanAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]ReplanRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	never, always, drift := byPolicy["never"], byPolicy["always"], byPolicy["drift"]
	if always.Plans != cfg.Periods+1 {
		t.Fatalf("always-replan computed %d plans, want %d", always.Plans, cfg.Periods+1)
	}
	if never.Plans != 1 {
		t.Fatalf("never-replan computed %d plans, want 1", never.Plans)
	}
	if !(drift.Plans > 1 && drift.Plans < always.Plans) {
		t.Fatalf("drift plans = %d, want strictly between 1 and %d", drift.Plans, always.Plans)
	}
	// Cost ordering: always ≤ drift ≤ never (modulo ties).
	if always.TrueCost > never.TrueCost+1e-6 {
		t.Fatalf("always (%g) should not cost more than never (%g)", always.TrueCost, never.TrueCost)
	}
	if drift.TrueCost > never.TrueCost+1e-6 {
		t.Fatalf("drift (%g) should not cost more than never (%g)", drift.TrueCost, never.TrueCost)
	}
	if !strings.Contains(FormatReplanTable(rows), "vs always") {
		t.Fatal("table missing header")
	}
}

func TestReplanValidation(t *testing.T) {
	cfg := DefaultReplanConfig()
	cfg.Periods = 0
	if _, err := RunReplanAblation(cfg); err == nil {
		t.Fatal("zero periods should be rejected")
	}
}

func TestIntervalComparison(t *testing.T) {
	cfg := DefaultIntervalConfig()
	cfg.Trials = 40
	rows, err := RunIntervalComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]IntervalRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// On proper families the DP is exact — 100% optimal.
	if dp := byName["interval-dp"]; dp.ProbOptimal != 1 || dp.AvgDistance > 1e-9 {
		t.Fatalf("interval DP should be exact on proper families: %+v", dp)
	}
	// Improper families may break contiguity; the DP still never errors.
	cfg.Proper = false
	if _, err := RunIntervalComparison(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalComparisonValidation(t *testing.T) {
	cfg := DefaultIntervalConfig()
	cfg.Intervals = 30
	if _, err := RunIntervalComparison(cfg); err == nil {
		t.Fatal("infeasible interval count should be rejected")
	}
}

func TestConfidenceIntervals(t *testing.T) {
	if got := binomialCI(0.5, 100); math.Abs(got-0.098) > 0.001 {
		t.Fatalf("binomialCI(0.5, 100) = %g, want ~0.098", got)
	}
	if binomialCI(1, 100) != 0 || binomialCI(0.5, 0) != 0 {
		t.Fatal("degenerate CIs should be 0")
	}
	var w welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.add(x)
	}
	mean, ci := w.meanCI()
	if mean != 5 {
		t.Fatalf("mean = %g, want 5", mean)
	}
	if ci <= 0 {
		t.Fatalf("ci = %g, want positive", ci)
	}
	rows, err := RunMergeOptimality(MergeConfig{
		Workload: smallMerge().Workload, Model: smallMerge().Model,
		MinQueries: 3, MaxQueries: 3, Trials: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ProbOptimalCI < 0 || rows[0].AvgDistanceCI < 0 {
		t.Fatalf("negative CI: %+v", rows[0])
	}
	if !strings.Contains(FormatMergeTable(rows), "±") {
		t.Fatal("table should show confidence intervals")
	}
}

func TestSplitMeasurement(t *testing.T) {
	cfg := DefaultSplitConfig()
	cfg.Trials = 20
	res, err := RunSplitMeasurement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsWithDrops == 0 {
		t.Fatal("tiled workloads should produce covered queries")
	}
	if res.AvgDropped <= 0.2 {
		t.Fatalf("tiled mode should drop spanning queries with some regularity: %+v", res)
	}
	if res.AvgSavings < 0 {
		t.Fatalf("split made things worse on average: %+v", res)
	}
	if !strings.Contains(FormatSplitResult(res), "eliminated") {
		t.Fatal("format missing fields")
	}
	cfg.Trials = 0
	if _, err := RunSplitMeasurement(cfg); err == nil {
		t.Fatal("zero trials should be rejected")
	}
}
