// Package metrics is a dependency-free registry of atomic counters,
// gauges and fixed-bucket histograms for instrumenting the qsub engine.
//
// # Zero-allocation contract
//
// Every instrument is pre-registered at startup (NewRegistry +
// Registry.Counter/Gauge/Histogram/CounterVec); the hot-path methods —
// Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe, Vec.At — never
// allocate and never take locks. Counters and gauges are single atomic
// adds; histograms do a linear scan over a fixed bound slice, one atomic
// bucket add and a CAS loop on a float64-bits sum. All instrument
// pointers are nil-safe: a nil *Counter, *Gauge, *Histogram or *Vec
// turns every method into a one-branch no-op, so uninstrumented callers
// keep a nil handle and pay a single predictable branch.
//
// Export paths (Snapshot, WritePrometheus) allocate freely; they are
// cold and run concurrently with writers, reading each instrument
// atomically (per-value, not cross-instrument consistent — fine for
// monotone counters).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64.
type Counter struct {
	v          atomic.Uint64
	name, help string
	labels     string // preformatted {k="v"} suffix, "" for plain counters
}

// Inc adds one. Nil-safe no-op.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Nil-safe no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value; 0 for a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an instantaneous int64 value (set or adjusted).
type Gauge struct {
	v          atomic.Int64
	name, help string
}

// Set stores v. Nil-safe no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts by delta. Nil-safe no-op.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value; 0 for a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed upper-bound buckets
// (cumulative on export, Prometheus-style, with an implicit +Inf
// bucket) and tracks the running sum and maximum.
type Histogram struct {
	name, help string
	labels     string          // preformatted k="v" pairs (no braces), "" for plain histograms
	bounds     []float64       // ascending upper bounds; immutable after registration
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	count      atomic.Uint64
	sumBits    atomic.Uint64 // math.Float64bits of the running sum
	maxBits    atomic.Uint64 // math.Float64bits of the running max
}

// Observe records v. Nil-safe no-op; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Max returns the largest observed value; 0 before any observation.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Count returns the number of observations; 0 for a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; 0 for a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// A Vec is a fixed-size family of counters sharing a name and
// distinguished by one integer-valued label (e.g. per-channel totals).
// Slots are pre-registered; At is a nil-safe bounds-checked lookup.
type Vec struct {
	counters []*Counter
}

// At returns the counter for slot i, or nil (itself a no-op handle)
// when the vec is nil or i is out of range.
func (v *Vec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.counters) {
		return nil
	}
	return v.counters[i]
}

// Len returns the number of slots; 0 for a nil vec.
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.counters)
}

// A Registry owns a set of pre-registered instruments. Registration
// (the Counter/Gauge/Histogram/CounterVec constructors) is mutex-guarded
// and idempotent by name; instrument use after registration is lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter // key: name+labels
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers (or returns the existing) plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

func newHistogram(name, help, labels string, bounds []float64) *Histogram {
	h := &Histogram{
		name:   name,
		help:   help,
		labels: labels,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bounds. The bounds slice is copied.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, help, "", bounds)
	r.hists[name] = h
	return h
}

// A HVec is a fixed family of histograms sharing a name and bounds,
// distinguished by one string-valued label (e.g. per-stage durations).
// Slots are pre-registered; At is a nil-safe lookup by label value.
type HVec struct {
	values []string
	hists  []*Histogram
}

// At returns the histogram for the given label value, or nil (itself a
// no-op handle) when the vec is nil or the value was not registered.
func (v *HVec) At(value string) *Histogram {
	if v == nil {
		return nil
	}
	for i, val := range v.values {
		if val == value {
			return v.hists[i]
		}
	}
	return nil
}

// HistogramVec registers a fixed family of histograms labelled
// label=values[i], all sharing bounds. Returns an empty (all-At-nil)
// vec when values is empty.
func (r *Registry) HistogramVec(name, help, label string, values []string, bounds []float64) *HVec {
	v := &HVec{}
	for _, val := range values {
		labels := label + `="` + val + `"`
		key := name + `{` + labels + `}`
		r.mu.Lock()
		h, ok := r.hists[key]
		if !ok {
			h = newHistogram(name, help, labels, bounds)
			r.hists[key] = h
		}
		r.mu.Unlock()
		v.values = append(v.values, val)
		v.hists = append(v.hists, h)
	}
	return v
}

// CounterVec registers a fixed family of n counters labelled
// label="0".."n-1". Returns an empty (all-At-nil) vec when n <= 0.
func (r *Registry) CounterVec(name, help, label string, n int) *Vec {
	v := &Vec{}
	for i := 0; i < n; i++ {
		labels := `{` + label + `="` + strconv.Itoa(i) + `"}`
		key := name + labels
		r.mu.Lock()
		c, ok := r.counters[key]
		if !ok {
			c = &Counter{name: name, help: help, labels: labels}
			r.counters[key] = c
		}
		r.mu.Unlock()
		v.counters = append(v.counters, c)
	}
	return v
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the bucket holding the
// target rank. The estimate is bounded by the bucket layout: ranks
// landing in the +Inf overflow bucket report the highest finite bound
// (the true value is only known to exceed it), and Quantile(1) reports
// the exact tracked maximum. Returns 0 before any observation or for a
// nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantile(q, h.bounds, counts, h.Max())
}

// quantile is the shared rank-interpolation core for live histograms
// and snapshots. counts is per-bucket (non-cumulative) with the +Inf
// overflow last; max is the tracked maximum (used for q == 1 and to cap
// the overflow bucket's estimate).
func quantile(q float64, bounds []float64, counts []uint64, max float64) float64 {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return max
	}
	// rank is the (fractional) number of observations at or below the
	// target quantile; walk the cumulative counts to the bucket holding it.
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: the true value exceeds the last finite
			// bound; the tracked max is the tightest honest answer.
			if max > 0 {
				return max
			}
			if len(bounds) > 0 {
				return bounds[len(bounds)-1]
			}
			return 0
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		// Interpolate the rank's position within this bucket's span.
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		v := lo + frac*(hi-lo)
		if max > 0 && v > max {
			v = max
		}
		return v
	}
	return max
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Max     float64   `json:"max,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"` // per-bucket (non-cumulative), len(Bounds)+1
}

// Quantile estimates the q-quantile of the snapshot's distribution; see
// Histogram.Quantile for the interpolation and bounding rules.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantile(q, s.Bounds, s.Buckets, s.Max)
}

// Mean returns the average observed value; 0 for an empty snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot is a point-in-time JSON-able copy of every instrument,
// keyed by metric name (plus label suffix for vec members).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered instrument.
// Nil-safe: a nil registry yields a nil snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for key, c := range r.counters {
		s.Counters[key] = c.Load()
	}
	for key, g := range r.gauges {
		s.Gauges[key] = g.Load()
	}
	for key, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Max:    h.Max(),
			Bounds: append([]float64(nil), h.bounds...),
		}
		hs.Buckets = make([]uint64, len(h.counts))
		for i := range h.counts {
			hs.Buckets[i] = h.counts[i].Load()
		}
		s.Histograms[key] = hs
	}
	return s
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (hand-rolled; no client library).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool {
		if counters[i].name != counters[j].name {
			return counters[i].name < counters[j].name
		}
		return counters[i].labels < counters[j].labels
	})
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return hists[i].labels < hists[j].labels
	})

	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	lastHeader := ""
	for _, c := range counters {
		if c.name != lastHeader {
			pr("# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
			lastHeader = c.name
		}
		pr("%s%s %d\n", c.name, c.labels, c.Load())
	}
	for _, g := range gauges {
		pr("# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		pr("%s %d\n", g.name, g.Load())
	}
	lastHeader = ""
	for _, h := range hists {
		if h.name != lastHeader {
			pr("# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
			lastHeader = h.name
		}
		// Vec members carry a label pair that must precede le= inside
		// the same brace set.
		prefix := ""
		if h.labels != "" {
			prefix = h.labels + ","
		}
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			pr("%s_bucket{%sle=\"%s\"} %d\n", h.name, prefix, formatBound(b), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		pr("%s_bucket{%sle=\"+Inf\"} %d\n", h.name, prefix, cum)
		suffix := ""
		if h.labels != "" {
			suffix = "{" + h.labels + "}"
		}
		pr("%s_sum%s %s\n", h.name, suffix, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		pr("%s_count%s %d\n", h.name, suffix, h.Count())
	}
	return err
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
