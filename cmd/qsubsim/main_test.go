package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qsub/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

// TestExperimentsGolden runs `qsubsim -exp all -trials 200`, the command
// behind `make experiments` and EXPERIMENTS.md, and diffs its output
// against testdata/experiments.golden. Every quality cell is a function
// of the seeds alone (the parallel solvers give identical plans at every
// GOMAXPROCS), so the comparison is exact. The timing cells, the only
// ones that vary run to run, are all rendered through experiment.Timing,
// and the test masks exactly those by replacing it.
//
// `go test ./cmd/qsubsim -update` rewrites the file.
func TestExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full table set runs for minutes under -race; the race suite covers the solvers it calls")
	}
	timing := experiment.Timing
	experiment.Timing = func(string, any) string { return "~" }
	defer func() { experiment.Timing = timing }()

	var out bytes.Buffer
	if err := run(&out, []string{"-exp", "all", "-trials", "200"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == string(want) {
		return
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
	t.Fatal("output differs from testdata/experiments.golden; if the change is intended, rerun with -update and review the diff")
}
