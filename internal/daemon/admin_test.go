package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"qsub/internal/admin"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/trace"
)

// adminDaemon builds a daemon whose first cycle merges two disjoint
// queries (the huge K_M makes any merge beneficial), so the merged
// message carries tuples irrelevant to each individual query and the
// U(Q,M) counter must come out nonzero.
func adminDaemon(t *testing.T) *Daemon {
	t.Helper()
	rel := relation.MustNew(geom.R(0, 0, 100, 100), 10, 10)
	rel.Insert(geom.Pt(10, 10), []byte("near-origin"))
	rel.Insert(geom.Pt(90, 90), []byte("far-corner"))
	d, err := New(rel, 2, server.Config{
		Model: cost.Model{KM: 1e9, KT: 1, KU: 1, K6: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.srv.Subscribe(1, query.Range(1, geom.R(0, 0, 20, 20))); err != nil {
		t.Fatal(err)
	}
	if err := d.srv.Subscribe(2, query.Range(2, geom.R(80, 80, 100, 100))); err != nil {
		t.Fatal(err)
	}
	return d
}

// counterValue extracts one sample value from Prometheus exposition
// text, summing across label sets of the same family.
func counterValue(t *testing.T, body, name string) float64 {
	t.Helper()
	total := 0.0
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		metric := fields[0]
		if metric != name && !strings.HasPrefix(metric, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		total += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in exposition", name)
	}
	return total
}

func TestAdminEndpointAfterCycle(t *testing.T) {
	d := adminDaemon(t)
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(d.AdminMux())
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, _ := get("/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q, want ok", body)
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type %q", ctype)
	}
	for _, name := range []string{
		"qsub_publish_messages_total",
		"qsub_publish_payload_bytes_total",
		"qsub_memo_hits_total",
		"qsub_irrelevant_tuples_total",
		"qsub_plans_total",
	} {
		if v := counterValue(t, body, name); v == 0 {
			t.Errorf("%s = 0 after a publish cycle, want nonzero", name)
		}
	}
	// The encode-once fan-out instruments are registered from the start;
	// counterValue fails the test if a family is missing from the
	// exposition. Values stay zero here — no session is subscribed, so
	// the cycle publishes to empty channels and skips encoding entirely.
	for _, name := range []string{
		"qsub_fanout_encodes_total",
		"qsub_fanout_frames_written_total",
		"qsub_fanout_bytes_total",
	} {
		counterValue(t, body, name)
	}

	body, ctype = get("/statusz")
	if ctype != "application/json" {
		t.Fatalf("statusz content type %q", ctype)
	}
	var st admin.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz not JSON: %v", err)
	}
	if st.Replans != 1 || st.Channels != 2 {
		t.Fatalf("statusz = replans %d channels %d, want 1 and 2", st.Replans, st.Channels)
	}
	if st.Plan == nil || st.Plan.Queries != 2 || st.Plan.MergedSets != 1 {
		t.Fatalf("statusz plan = %+v, want 2 queries merged into 1 set", st.Plan)
	}
	if st.Metrics == nil || st.Metrics.Counters["qsub_publish_messages_total"] == 0 {
		t.Fatalf("statusz metrics snapshot missing publish counters: %+v", st.Metrics)
	}
	for _, name := range []string{
		"qsub_fanout_encodes_total",
		"qsub_fanout_frames_written_total",
		"qsub_fanout_bytes_total",
	} {
		if _, ok := st.Metrics.Counters[name]; !ok {
			t.Errorf("statusz metrics snapshot missing %s", name)
		}
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
}

func TestTraceEventsCarryMetricsSnapshot(t *testing.T) {
	d := adminDaemon(t)
	var buf strings.Builder
	rec := trace.NewRecorder(&buf, nil)
	d.Trace = rec
	if _, err := d.RunCycle(false); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"metrics"`) {
		t.Fatalf("plan/drift trace events carry no metrics snapshot: %s", buf.String())
	}
}
