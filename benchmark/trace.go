package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one cycle
// share its ordinal; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cycle   int    `json:"cycle"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one branch per site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id.
func (t *tracer) add(parent, cycle int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// layerSpans are the spans that stand for a layer of the program; the
// rest (cycle, run_cycle, await_extract, replay) only group them.
var layerSpans = map[string]bool{
	"apply_change": true, // relation inserts/deletes, subscription frames
	"plan":         true, // server.Plan and the solvers under it
	"encode":       true, // wire
	"handoff":      true, // relation probes + multicast ring hand-off
	"write":        true, // daemon/relay session writers
	"drain":        true, // netclient read+decode and client extraction after the last write
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered(s.StartNs, s.EndNs, children[s.ID]))
	}
	return out
}

// covered is the length of [lo, hi) that the spans cover.
func covered(lo, hi int64, spans []span) int64 {
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNs, lo), min(s.EndNs, hi)
		if a < b {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// residualShare is the share of the cycles' wall time that no layer span
// covers.
func (t *tracer) residualShare() float64 {
	byCycle := make(map[int][]span)
	var roots []span
	for _, s := range t.spans {
		switch {
		case s.Name == "cycle":
			roots = append(roots, s)
		case layerSpans[s.Name]:
			byCycle[s.Cycle] = append(byCycle[s.Cycle], s)
		}
	}
	var wall, cov int64
	for _, r := range roots {
		wall += r.EndNs - r.StartNs
		cov += covered(r.StartNs, r.EndNs, byCycle[r.Cycle])
	}
	if wall == 0 {
		return 0
	}
	return float64(wall-cov) / float64(wall)
}

// write stores the trace as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := make(map[string]float64)
	for name, d := range t.selfTimes() {
		self[name] = ms(d)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{
		"workload":        workload,
		"seed":            seed,
		"self_ms_by_name": self,
		"residual_share":  t.residualShare(),
		"spans":           t.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
