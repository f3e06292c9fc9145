package server

import (
	"testing"

	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
)

// TestReplanSingleChannelChurn exercises the §11 incremental path on a
// single channel: subscribe, plan, churn, replan — the refreshed cycle
// must be structurally valid, reflect the churn exactly, and be counted
// as incremental.
func TestReplanSingleChannelChurn(t *testing.T) {
	rel, net := buildWorld(t, 1, 400, 1)
	cat := metrics.NewCatalog(1)
	s, err := New(rel, net, Config{Model: testModel, Metrics: cat, Neighbors: 4})
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 3; c++ {
		for q := 0; q < 4; q++ {
			r := geom.RectWH(float64(c*100+q*30), float64(c*80), 60, 60)
			if err := s.Subscribe(c, query.Range(query.ID(q+1), r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}

	// Churn: one departure, one arrival on an existing client.
	if !s.Unsubscribe(2, 3) {
		t.Fatal("unsubscribe failed")
	}
	if err := s.Subscribe(3, query.Range(99, geom.RectWH(500, 500, 40, 40))); err != nil {
		t.Fatal(err)
	}
	cy2, err := s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if cy2 == cy {
		t.Fatal("churned replan returned the previous cycle")
	}
	if err := ValidateCycle(cy2, 1); err != nil {
		t.Fatal(err)
	}
	foundNew := false
	for i, q := range cy2.Queries {
		if cy2.Owners[i] == 2 && q.ID == 3 {
			t.Fatal("removed subscription survived the replan")
		}
		if cy2.Owners[i] == 3 && q.ID == 99 {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatal("new subscription missing from the replanned cycle")
	}
	if got := cat.PlansIncremental.Load(); got != 1 {
		t.Fatalf("PlansIncremental = %d, want 1", got)
	}
	if cy2.EstimatedCost > cy2.InitialCost+1e-6 {
		t.Fatalf("replanned cost %g worse than no merging %g", cy2.EstimatedCost, cy2.InitialCost)
	}

	// Publishing the incremental cycle must work end to end.
	if _, err := s.Publish(cy2); err != nil {
		t.Fatal(err)
	}

	// No churn: the same cycle comes back untouched and uncounted.
	cy3, err := s.Replan(cy2)
	if err != nil {
		t.Fatal(err)
	}
	if cy3 != cy2 {
		t.Fatal("no-op replan should return the previous cycle")
	}
	if got := cat.PlansIncremental.Load(); got != 1 {
		t.Fatalf("no-op replan bumped PlansIncremental to %d", got)
	}
}

// TestReplanMultiChannelKeepsAssignment pins the multi-channel
// incremental path: with a stable client set, churned queries are
// spliced onto their owner's existing channel and every other client
// keeps its assignment.
func TestReplanMultiChannelKeepsAssignment(t *testing.T) {
	rel, net := buildWorld(t, 3, 400, 2)
	cat := metrics.NewCatalog(3)
	s, err := New(rel, net, Config{Model: testModel, Metrics: cat})
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 5; c++ {
		for q := 0; q < 3; q++ {
			r := geom.RectWH(float64(c*150+q*40), float64(c*120), 70, 70)
			if err := s.Subscribe(c, query.Range(query.ID(q+1), r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}

	if !s.Unsubscribe(4, 2) {
		t.Fatal("unsubscribe failed")
	}
	if err := s.Subscribe(2, query.Range(50, geom.RectWH(300, 260, 50, 50))); err != nil {
		t.Fatal(err)
	}
	cy2, err := s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy2, 3); err != nil {
		t.Fatal(err)
	}
	if got := cat.PlansIncremental.Load(); got != 1 {
		t.Fatalf("PlansIncremental = %d, want 1", got)
	}
	for id, ch := range cy.ClientChannel {
		if cy2.ClientChannel[id] != ch {
			t.Fatalf("client %d moved from channel %d to %d", id, ch, cy2.ClientChannel[id])
		}
	}
	// The new query must live on its owner's channel.
	newIdx := -1
	for i, q := range cy2.Queries {
		if cy2.Owners[i] == 2 && q.ID == 50 {
			newIdx = i
		}
	}
	if newIdx < 0 {
		t.Fatal("new subscription missing")
	}
	wantCh := cy2.ClientChannel[2]
	found := false
	for _, set := range cy2.ChannelPlans[wantCh] {
		for _, q := range set {
			if q == newIdx {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("new query %d not planned on owner channel %d", newIdx, wantCh)
	}
	if _, err := s.Publish(cy2); err != nil {
		t.Fatal(err)
	}
}

// TestReplanSameIDNewRegion: a client that drops a subscription and
// registers another under the same query id has changed its
// subscriptions; the replan must plan the new region, not hand back the
// previous cycle.
func TestReplanSameIDNewRegion(t *testing.T) {
	rel, net := buildWorld(t, 1, 400, 6)
	s, err := New(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		if err := s.Subscribe(1, query.Range(query.ID(q+1), geom.RectWH(float64(q*100), 100, 60, 60))); err != nil {
			t.Fatal(err)
		}
	}
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	moved := geom.RectWH(500, 700, 60, 60)
	s.Unsubscribe(1, 3)
	if err := s.Subscribe(1, query.Range(3, moved)); err != nil {
		t.Fatal(err)
	}
	cy2, err := s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if cy2 == cy || cy2.Info.Mode != ModeIncremental {
		t.Fatalf("replan after a region change returned prev or mode %q", cy2.Info.Mode)
	}
	if err := ValidateCycle(cy2, 1); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range cy2.Queries {
		found = found || q.ID == 3 && q.Region == geom.Region(moved)
	}
	if !found {
		t.Fatal("the re-registered query's new region is not in the cycle")
	}
}

// TestReplanFallsBackToFullPlan enumerates the escalation cases: a new
// client on a multi-channel network, heavy churn and a nil previous cycle
// all bypass the incremental path but still produce valid cycles.
func TestReplanFallsBackToFullPlan(t *testing.T) {
	rel, net := buildWorld(t, 3, 400, 3)
	cat := metrics.NewCatalog(3)
	s, err := New(rel, net, Config{Model: testModel, Metrics: cat})
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 3; c++ {
		for q := 0; q < 3; q++ {
			r := geom.RectWH(float64(c*120+q*50), float64(c*90), 60, 60)
			if err := s.Subscribe(c, query.Range(query.ID(q+1), r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}

	// New client: channel allocation must rerun.
	if err := s.Subscribe(9, query.Range(1, geom.RectWH(600, 600, 50, 50))); err != nil {
		t.Fatal(err)
	}
	cy2, err := s.Replan(cy)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy2, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := cy2.ClientChannel[9]; !ok {
		t.Fatal("new client missing from fallback plan")
	}
	if got := cat.PlansIncremental.Load(); got != 0 {
		t.Fatalf("fallback counted as incremental (%d)", got)
	}

	// Heavy churn (> 25% of the cycle) also escalates.
	for q := 0; q < 3; q++ {
		s.Unsubscribe(1, query.ID(q+1))
		s.Unsubscribe(2, query.ID(q+1))
	}
	cy3, err := s.Replan(cy2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy3, 3); err != nil {
		t.Fatal(err)
	}
	if got := cat.PlansIncremental.Load(); got != 0 {
		t.Fatalf("heavy churn counted as incremental (%d)", got)
	}

	// Nil previous cycle degenerates to Plan.
	cy4, err := s.Replan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy4, 3); err != nil {
		t.Fatal(err)
	}
}

// TestPlanBudgetExhaustedCounter wires the anytime budget through the
// server: a one-step budget forces best-so-far plans that are still
// valid, and the exhaustion is visible on the metrics catalog.
func TestPlanBudgetExhaustedCounter(t *testing.T) {
	rel, net := buildWorld(t, 1, 300, 5)
	cat := metrics.NewCatalog(1)
	s, err := New(rel, net, Config{Model: testModel, Metrics: cat, PlanMaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 10; q++ {
		r := geom.RectWH(float64(q*40), float64(q*30), 80, 80)
		if err := s.Subscribe(1, query.Range(query.ID(q+1), r)); err != nil {
			t.Fatal(err)
		}
	}
	cy, err := s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy, 1); err != nil {
		t.Fatal(err)
	}
	if got := cat.PlanBudgetExhausted.Load(); got != 1 {
		t.Fatalf("PlanBudgetExhausted = %d, want 1", got)
	}
	if cy.EstimatedCost > cy.InitialCost+1e-6 {
		t.Fatalf("budget-exhausted plan cost %g worse than no merging %g",
			cy.EstimatedCost, cy.InitialCost)
	}
	if _, err := s.Publish(cy); err != nil {
		t.Fatal(err)
	}
}
