package server

import (
	"math"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

func TestDriftMonitorSmoothing(t *testing.T) {
	m := &DriftMonitor{Alpha: 0.5, Threshold: 0.4}
	// First observation seeds the EMA directly.
	if got := m.Observe(100, 100); got != 0 {
		t.Fatalf("zero drift observed as %g", got)
	}
	if m.ShouldReplan() {
		t.Fatal("should not replan after a single clean sample")
	}
	// A big burst: drift 1.0, EMA = 0.5·1 + 0.5·0 = 0.5 > 0.4.
	m.Observe(100, 200)
	if !m.ShouldReplan() {
		t.Fatalf("smoothed drift %g should trigger replan", m.Drift())
	}
	m.Reset()
	if m.ShouldReplan() || m.Drift() != 0 {
		t.Fatal("reset should clear the monitor")
	}
}

func TestDriftMonitorColdStartGuard(t *testing.T) {
	m := &DriftMonitor{}
	m.Observe(1, 1e9) // absurd first sample
	if m.ShouldReplan() {
		t.Fatal("one sample must never trigger a replan")
	}
	m.Observe(1, 1e9)
	if !m.ShouldReplan() {
		t.Fatal("sustained drift should trigger a replan")
	}
}

func TestDriftMonitorZeroEstimateSafe(t *testing.T) {
	m := &DriftMonitor{}
	got := m.Observe(0, 50)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero estimate produced %g", got)
	}
}

// TestDriftDetectsDatabaseChurn runs the real feedback loop: a plan is
// made on an empty region of the database; as inserts concentrate inside
// the subscribed region, actual bytes diverge from the (stale) estimates
// and the monitor fires.
func TestDriftDetectsDatabaseChurn(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 100, 100), 4, 4)
	for i := 0; i < 50; i++ {
		rel.Insert(geom.Pt(90, 90), []byte("elsewhere"))
	}
	net, err := multicast.NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv, err := New(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Range(1, geom.R(0, 0, 50, 50))
	srv.Subscribe(1, q)
	cy, err := srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	estimate := srv.EstimatedTransmitBytes(cy)

	m := &DriftMonitor{Threshold: 0.5}
	sub, _ := net.Subscribe(0, 1024)
	go drained(sub)
	// Cycle 1: database matches the estimate; no drift.
	rep, err := srv.Publish(cy)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(estimate, float64(rep.PayloadBytes))
	if m.ShouldReplan() {
		t.Fatal("no churn yet; replan should not fire")
	}
	// Churn: a burst of inserts inside the subscribed region.
	for i := 0; i < 500; i++ {
		rel.Insert(geom.Pt(25, 25), []byte("burst"))
	}
	for cycle := 0; cycle < 3; cycle++ {
		rep, err = srv.Publish(cy)
		if err != nil {
			t.Fatal(err)
		}
		m.Observe(estimate, float64(rep.PayloadBytes))
	}
	if !m.ShouldReplan() {
		t.Fatalf("sustained churn (drift %g) should trigger a replan", m.Drift())
	}
	// After re-planning with fresh estimates the monitor resets and the
	// new estimate matches reality again.
	cy, err = srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	estimate = srv.EstimatedTransmitBytes(cy)
	rep, err = srv.Publish(cy)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(estimate, float64(rep.PayloadBytes))
	m.Observe(estimate, float64(rep.PayloadBytes))
	if m.ShouldReplan() {
		t.Fatalf("fresh plan should not drift (drift %g)", m.Drift())
	}
	sub.Cancel()
}
