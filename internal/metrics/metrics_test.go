package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "dup"); again != c {
		t.Fatal("re-registering a counter by name must return the same instance")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if again := r.Gauge("g", "dup"); again != g {
		t.Fatal("re-registering a gauge by name must return the same instance")
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *Vec
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if v.At(0) != nil || v.Len() != 0 {
		t.Fatal("nil vec must return nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal("nil registry WritePrometheus must be a no-op")
	}
	var cat *Catalog
	if cat.Snapshot() != nil {
		t.Fatal("nil catalog snapshot must be nil")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5556.5 {
		t.Fatalf("sum = %v, want 5556.5", got)
	}
	if again := r.Histogram("lat", "dup", nil); again != h {
		t.Fatal("re-registering a histogram by name must return the same instance")
	}
	snap := r.Snapshot()
	hs, ok := snap.Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets are non-cumulative in snapshots: (<=1)=2, (<=10)=1, (<=100)=1, +Inf=2.
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if hs.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hs.Buckets[i], w, hs.Buckets)
		}
	}
}

func TestVecAtBounds(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("chan_total", "per channel", "channel", 3)
	if v.Len() != 3 {
		t.Fatalf("len = %d, want 3", v.Len())
	}
	v.At(0).Inc()
	v.At(2).Add(5)
	v.At(-1).Inc() // out of range: no-op
	v.At(3).Inc()  // out of range: no-op
	if v.At(0).Load() != 1 || v.At(1).Load() != 0 || v.At(2).Load() != 5 {
		t.Fatalf("unexpected vec values: %d %d %d", v.At(0).Load(), v.At(1).Load(), v.At(2).Load())
	}
	empty := r.CounterVec("none_total", "empty", "channel", 0)
	if empty.Len() != 0 || empty.At(0) != nil {
		t.Fatal("zero-size vec must hand out nil counters")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_things_total", "things processed")
	c.Add(42)
	g := r.Gauge("app_depth", "queue depth")
	g.Set(-3)
	h := r.Histogram("app_lat_seconds", "latency", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(10)
	v := r.CounterVec("app_chan_total", "per channel", "channel", 2)
	v.At(1).Add(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_things_total things processed",
		"# TYPE app_things_total counter",
		"app_things_total 42",
		"app_depth -3",
		"# TYPE app_lat_seconds histogram",
		`app_lat_seconds_bucket{le="0.5"} 1`,
		`app_lat_seconds_bucket{le="2"} 2`,
		`app_lat_seconds_bucket{le="+Inf"} 3`,
		"app_lat_seconds_sum 11.25",
		"app_lat_seconds_count 3",
		`app_chan_total{channel="0"} 0`,
		`app_chan_total{channel="1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The vec family header must appear exactly once.
	if strings.Count(out, "# TYPE app_chan_total counter") != 1 {
		t.Fatalf("vec family header repeated:\n%s", out)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	cat := NewCatalog(2)
	cat.MemoHits.Add(3)
	cat.PublishMessages.Add(7)
	cat.ChannelMessages.At(1).Add(2)
	cat.PlanSeconds.Observe(0.002)
	snap := cat.Snapshot()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["qsub_memo_hits_total"] != 3 {
		t.Fatalf("memo hits = %d, want 3", back.Counters["qsub_memo_hits_total"])
	}
	if back.Counters[`qsub_channel_messages_total{channel="1"}`] != 2 {
		t.Fatalf("channel counter lost: %v", back.Counters)
	}
	if back.Histograms["qsub_plan_seconds"].Count != 1 {
		t.Fatal("plan seconds histogram lost")
	}
}

func TestCatalogZeroChannels(t *testing.T) {
	cat := NewCatalog(0)
	cat.ChannelMessages.At(0).Inc() // no-op, must not panic
	if cat.ChannelMessages.Len() != 0 {
		t.Fatal("zero-channel catalog must have empty vecs")
	}
}

// TestHotPathZeroAlloc pins the package contract: enabled and nil
// instruments allocate nothing on the hot path.
func TestHotPathZeroAlloc(t *testing.T) {
	cat := NewCatalog(4)
	ch := cat.ChannelMessages
	h := cat.PublishSeconds
	if allocs := testing.AllocsPerRun(100, func() {
		cat.MemoHits.Inc()
		cat.PublishTuples.Add(17)
		ch.At(2).Add(3)
		h.Observe(0.0042)
	}); allocs != 0 {
		t.Fatalf("enabled hot path: %v allocs/op, want 0", allocs)
	}
	var nc *Counter
	var nh *Histogram
	var nv *Vec
	if allocs := testing.AllocsPerRun(100, func() {
		nc.Inc()
		nc.Add(17)
		nv.At(2).Add(3)
		nh.Observe(0.0042)
	}); allocs != 0 {
		t.Fatalf("nil hot path: %v allocs/op, want 0", allocs)
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h", "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("histogram count=%d sum=%v, want 8000/8000", h.Count(), h.Sum())
	}
}
