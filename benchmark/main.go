// Command benchmark is the repo's benchmark: five dissemination-cycle
// workloads run in lockstep closed-loop cycles inside one process, with
// every extracted answer verified against direct evaluation. See
// README.md for the metric definitions and how to read the output.
//
//	bash benchmark/run.sh                                  # all workloads, end-to-end metrics
//	bash benchmark/run.sh -trace 1                         # plus per-layer metrics and trace files
//	bash benchmark/run.sh -workload plan-paper -seed 2     # one workload; last line is the contract's JSON
//	bash benchmark/run.sh -repeat 10                       # spread of every end-to-end metric
//	bash benchmark/run.sh -list                            # metrics, bounds, workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		workload   = flag.String("workload", "", "run only this workload and print the result as one JSON object on the last line")
		seed       = flag.Int64("seed", 1, "workload seed (2 is the documented hold-out)")
		seconds    = flag.Float64("seconds", runSeconds, "measured window per workload")
		cycles     = flag.Int("cycles", 0, "measure exactly this many cycles instead of a time window")
		trace      = flag.Int("trace", 0, "1: traced run, reporting per-layer metrics and writing trace files")
		repeat     = flag.Int("repeat", 0, "run every workload this many times in child processes, each with the next seed, and report the spread of each end-to-end metric")
		outDir     = flag.String("out", "benchmark/out", "directory for trace files")
		doList     = flag.Bool("list", false, "print every metric and workload from the benchmark's table")
		doManifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the benchmark's table")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *doList:
		list(os.Stdout)
		return
	case *doManifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *workload))
		}
		selected = []workloadSpec{w}
	}
	opts := options{seed: *seed, seconds: *seconds, cycles: *cycles, trace: *trace != 0, setups: setupsPerRun, outDir: *outDir}
	if *repeat > 0 {
		if err := runRepeat(selected, opts, *repeat); err != nil {
			fatal(err)
		}
		return
	}

	failed := false
	for _, w := range selected {
		untraced := opts
		untraced.trace = false
		var reports []*report
		if !opts.trace || *workload == "" {
			rep, err := runWorkload(w, untraced)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, rep)
		}
		if opts.trace {
			rep, err := runWorkload(w, opts)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, rep)
		}
		for _, rep := range reports {
			printReport(rep)
			failed = failed || rep.Failed > 0
		}
		if len(reports) == 2 {
			fmt.Printf("  %-38s %12.4f ratio   traced / untraced cycle_ms_p50\n", "tracing overhead",
				reports[1].Metrics["trace.cycle_ms_p50"]/reports[0].Metrics["cycle_ms_p50"])
		}
		if *workload != "" {
			printContract(reports[len(reports)-1])
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func specsFor(rep *report) []metricSpec {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric of a run by name, with its unit.
func printReport(rep *report) {
	fmt.Printf("%s seed %d: %d cycles, %d latency samples, %d attempted, %d failed (failed_share %g)\n",
		rep.Workload, rep.Seed, rep.Cycles, rep.LatencySamples, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted))
	for _, m := range specsFor(rep) {
		fmt.Printf("  %-38s %12.4f %s\n", m.Name, rep.Metrics[m.Name], m.Unit)
	}
	if rep.TracePath != "" {
		fmt.Printf("  trace written to %s\n", rep.TracePath)
	}
}

// contractResult is the last line of a single-workload run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(rep *report) {
	res := contractResult{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]contractMetric)}
	for _, m := range specsFor(rep) {
		res.Metrics[m.Name] = contractMetric{rep.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runRepeat measures run-to-run spread the way the driver does: n runs
// per workload in fresh processes, each with the next seed, then for each
// end-to-end metric the distance between the first and third quartile as
// a share of the median. It fails when a spread exceeds the metric's
// bound.
func runRepeat(selected []workloadSpec, opts options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	exceeded := false
	fmt.Printf("%-14s %-20s %12s %12s %12s %8s %10s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(opts.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64), "-cycles", strconv.Itoa(opts.cycles),
				"-trace", "0")
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
			var res contractResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w.Name, i+1, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range endToEnd {
			vs := values[m.Name]
			sort.Float64s(vs)
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			flag := ""
			switch {
			case m.Name == "setup_s":
				// The driver checks set-up's median against its bound, not its spread.
			case spread > m.Bound:
				flag, exceeded = " EXCEEDS BOUND", true
			case spread > m.Bound/3:
				flag = " above bound/3"
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %12.4f %7.2f%% %9.2f%% %5.0f%%%s\n", w.Name, m.Name, med, q1, q3,
				100*spread, 100*(vs[len(vs)-1]-vs[0])/med, 100*m.Bound, flag)
		}
	}
	if exceeded {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}
