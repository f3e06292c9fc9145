// Command qsubgen generates clustered query workloads (§9.1) as JSON for
// inspection or replay by external tools.
//
// Usage:
//
//	qsubgen -n 50 -cf 0.7 -sf 0.25 -df 40 > workload.json
//	qsubgen -n 20 -clients 5 -points 1000 -pretty
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"qsub"
)

// output is the JSON document qsubgen emits.
type output struct {
	Config  qsub.WorkloadConfig `json:"config"`
	Queries []jsonQuery         `json:"queries"`
	Clients [][]int             `json:"clients,omitempty"`
	Points  []jsonPoint         `json:"points,omitempty"`
}

type jsonQuery struct {
	ID   uint64  `json:"id"`
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type jsonPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func main() {
	var (
		n       = flag.Int("n", 20, "number of queries")
		cf      = flag.Float64("cf", 0.7, "clustering factor (fraction of clustered queries)")
		sf      = flag.Float64("sf", 0.25, "cluster size factor (fraction of clustered queries per cluster)")
		df      = flag.Float64("df", 40, "cluster density (normal scatter std dev)")
		minW    = flag.Float64("minw", 20, "minimum query extent")
		maxW    = flag.Float64("maxw", 80, "maximum query extent")
		dbSize  = flag.Float64("db", 1000, "database extent (square, from origin)")
		seed    = flag.Int64("seed", 1, "random seed")
		clients = flag.Int("clients", 0, "also partition queries across this many clients")
		points  = flag.Int("points", 0, "also generate this many data points")
		pretty  = flag.Bool("pretty", false, "indent the JSON output")
	)
	flag.Parse()
	for _, c := range []struct {
		name string
		v    int
	}{{"n", *n}, {"points", *points}, {"clients", *clients}} {
		if c.v < 0 {
			fmt.Fprintf(os.Stderr, "qsubgen: -%s must not be negative, got %d\n", c.name, c.v)
			os.Exit(2)
		}
	}

	cfg := qsub.WorkloadConfig{
		DB: qsub.R(0, 0, *dbSize, *dbSize),
		CF: *cf, SF: *sf, DF: *df,
		MinW: *minW, MaxW: *maxW, MinH: *minW, MaxH: *maxW,
		Seed: *seed,
	}
	gen, err := qsub.NewWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsubgen:", err)
		os.Exit(1)
	}
	qs := gen.Queries(*n)
	out := output{Config: cfg, Queries: make([]jsonQuery, 0, len(qs))}
	for _, q := range qs {
		r := q.Region.BoundingRect()
		out.Queries = append(out.Queries, jsonQuery{
			ID: uint64(q.ID), MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY,
		})
	}
	if *clients > 0 {
		out.Clients = gen.Clients(*clients, qs)
	}
	for _, p := range gen.Points(*points) {
		out.Points = append(out.Points, jsonPoint{X: p.X, Y: p.Y})
	}

	enc := json.NewEncoder(os.Stdout)
	if *pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "qsubgen:", err)
		os.Exit(1)
	}
}
