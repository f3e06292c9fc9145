package qsub

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	rel := NewRelation(R(0, 0, 1000, 1000), 10, 10)
	for x := 50.0; x < 1000; x += 100 {
		for y := 50.0; y < 1000; y += 100 {
			rel.Insert(Pt(x, y), []byte("o"))
		}
	}
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv, err := NewServer(rel, net, ServerConfig{Model: Model{KM: 500, KT: 1, KU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q1 := RangeQuery(1, R(0, 0, 400, 400))
	q2 := RangeQuery(2, R(100, 100, 500, 500))
	c1 := NewClient(0, q1)
	c2 := NewClient(1, q2)
	if err := srv.Subscribe(0, q1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Subscribe(1, q2); err != nil {
		t.Fatal(err)
	}
	cy, err := srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if cy.EstimatedCost > cy.InitialCost {
		t.Fatalf("merging should not cost more than not merging: %g > %g",
			cy.EstimatedCost, cy.InitialCost)
	}
	var wg sync.WaitGroup
	for _, pair := range []struct {
		c  *Client
		id int
	}{{c1, 0}, {c2, 1}} {
		sub, err := net.Subscribe(cy.ClientChannel[pair.id], 16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, sub *Subscription) {
			defer wg.Done()
			c.Consume(sub)
		}(pair.c, sub)
		defer sub.Cancel()
	}
	if _, err := srv.Publish(cy); err != nil {
		t.Fatal(err)
	}
	net.Close()
	wg.Wait()
	if got, want := len(c1.Answer(1)), len(q1.Answer(rel)); got != want {
		t.Fatalf("client 0 answer %d, want %d", got, want)
	}
	if got, want := len(c2.Answer(2)), len(q2.Answer(rel)); got != want {
		t.Fatalf("client 1 answer %d, want %d", got, want)
	}
}

// TestFacadeMergingAlgorithms checks the re-exported algorithms agree on
// a small instance.
func TestFacadeMergingAlgorithms(t *testing.T) {
	qs := []Query{
		RangeQuery(1, R(0, 0, 10, 10)),
		RangeQuery(2, R(5, 5, 15, 15)),
		RangeQuery(3, R(500, 500, 510, 510)),
	}
	inst := NewInstance(Model{KM: 100, KT: 1, KU: 1}, qs, BoundingRect{},
		UniformEstimator{Density: 1, BytesPerTuple: 1})
	opt := inst.Cost(Partition{}.Solve(inst))
	for _, algo := range []Algorithm{PairMerge{}, DirectedSearch{T: 4, Seed: 1}, Clustering{}, NoMerge{}} {
		plan := algo.Solve(inst)
		if !plan.IsPartition(3) {
			t.Fatalf("%s produced non-partition %v", algo.Name(), plan)
		}
		if c := inst.Cost(plan); c < opt-1e-9 {
			t.Fatalf("%s cost %g beats optimum %g", algo.Name(), c, opt)
		}
	}
	if got := inst.Cost(Singletons(3)); got != inst.InitialCost() {
		t.Fatalf("Singletons cost %g != InitialCost %g", got, inst.InitialCost())
	}
}

// TestFacadeWorkloadAndExperiments smoke-tests the experiment entry
// points through the facade.
func TestFacadeWorkloadAndExperiments(t *testing.T) {
	wl := DefaultWorkload()
	gen, err := NewWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	if qs := gen.Queries(5); len(qs) != 5 {
		t.Fatalf("generated %d queries", len(qs))
	}
	mc := MergeExperiment{
		Workload:   wl,
		Model:      Model{KM: 64000, KT: 1, KU: 0.5},
		MinQueries: 3, MaxQueries: 4, Trials: 3,
	}
	if _, err := RunMergeExperiment(mc); err != nil {
		t.Fatal(err)
	}
	cc := ChannelExperiment{
		Workload: wl,
		Model:    Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
		Clients:  4, Channels: 2, QueriesPerClient: 1, Trials: 3,
	}
	if _, err := RunChannelExperiment(cc); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeHistogram exercises the estimator exports.
func TestFacadeHistogram(t *testing.T) {
	rel := NewRelation(R(0, 0, 100, 100), 4, 4)
	rel.Insert(Pt(10, 10), nil)
	h, err := BuildHistogram(rel, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.SizeBytes(R(0, 0, 100, 100)) <= 0 {
		t.Fatal("histogram should see the inserted tuple")
	}
	var _ Estimator = h
	var _ Estimator = ExactEstimator{Rel: rel}
	var _ Estimator = UniformEstimator{Density: 1, BytesPerTuple: 1}
}

// TestFacadeIncremental exercises incremental plan maintenance through
// the facade.
func TestFacadeIncremental(t *testing.T) {
	qs := []Query{
		RangeQuery(1, R(0, 0, 10, 10)),
		RangeQuery(2, R(2, 2, 12, 12)),
		RangeQuery(3, R(4, 4, 14, 14)),
	}
	inst := NewInstance(Model{KM: 100, KT: 1, KU: 1}, qs, BoundingRect{},
		UniformEstimator{Density: 1, BytesPerTuple: 1})
	inc := NewIncremental(inst, Singletons(2))
	inc.Add(2)
	if !inc.Plan().IsPartition(3) {
		t.Fatalf("incremental plan %v invalid", inc.Plan())
	}
	if !inc.Remove(0) {
		t.Fatal("Remove(0) should succeed")
	}
}

// TestFacadeScheduler exercises the periodic scheduling exports.
func TestFacadeScheduler(t *testing.T) {
	rel := NewRelation(R(0, 0, 100, 100), 4, 4)
	rel.Insert(Pt(10, 10), nil)
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	s, err := NewScheduler(rel, net, ServerConfig{Model: Model{KM: 10, KT: 1, KU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe(1, RangeQuery(1, R(0, 0, 50, 50)), 2); err != nil {
		t.Fatal(err)
	}
	sub, _ := net.Subscribe(0, 8)
	rep, err := s.Tick(false) // tick 1: period-2 group does not fire
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fired) != 0 {
		t.Fatalf("tick 1 fired %v, want none", rep.Fired)
	}
	rep, err = s.Tick(false) // tick 2 fires
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fired) != 1 || rep.Fired[0] != 2 {
		t.Fatalf("tick 2 fired %v, want [2]", rep.Fired)
	}
	net.Close()
	got := drain(sub)
	if len(got) != 1 {
		t.Fatalf("%d messages published, want 1", len(got))
	}
	if len(got[0].Tuples) != 1 {
		t.Fatalf("message has %d tuples, want 1", len(got[0].Tuples))
	}
}

// drain returns every message the subscription delivers until it ends
// (after Cancel or Close).
func drain(sub *Subscription) []Message {
	var out []Message
	for {
		batch, ok := sub.NextBatch()
		out = append(out, batch...)
		if !ok {
			return out
		}
	}
}

// TestFacadePersistence exercises the snapshot exports.
func TestFacadePersistence(t *testing.T) {
	rel := NewRelation(R(0, 0, 100, 100), 4, 4)
	rel.Insert(Pt(10, 10), []byte("a"))
	var snap bytes.Buffer
	if err := rel.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&snap, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored %d tuples", restored.Len())
	}
}

// TestFacadeIntervals exercises the 1-D exports.
func TestFacadeIntervals(t *testing.T) {
	ivs := []Interval{{Lo: 2, Hi: 40}, {Lo: 3, Hi: 41}}
	p := MergeIntervals(Model{KM: 100, KT: 1, KU: 1}, ivs, 1)
	if len(p.Plan) != 1 {
		t.Fatalf("intro intervals should merge, got %v", p.Plan)
	}
	inst := NewIntervalInstance(Model{KM: 100, KT: 1, KU: 1}, ivs, 1)
	if got := inst.Cost(p.Plan); got != p.Cost {
		t.Fatalf("facade instance cost %g != DP cost %g", got, p.Cost)
	}
}

// TestFacadeFilteredQuery exercises attribute predicates via the facade.
func TestFacadeFilteredQuery(t *testing.T) {
	rel := NewRelation(R(0, 0, 100, 100), 4, 4)
	rel.Insert(Pt(5, 5), []byte("keep"))
	rel.Insert(Pt(6, 6), []byte("drop"))
	q := FilteredQuery(1, R(0, 0, 10, 10), func(t Tuple) bool {
		return string(t.Payload) == "keep"
	})
	if got := q.Answer(rel); len(got) != 1 || string(got[0].Payload) != "keep" {
		t.Fatalf("filtered facade answer = %v", got)
	}
}

// TestGrandTour exercises many features in one pipeline: filtered +
// projected queries, delta cycles with deletions, the histogram
// estimator, and client caching — everything a downstream adopter is
// likely to combine.
func TestGrandTour(t *testing.T) {
	rel := NewRelation(R(0, 0, 600, 600), 16, 16)
	kinds := []string{"tank", "truck"}
	var ids []uint64
	for i := 0; i < 3000; i++ {
		x := float64(i%60) * 10
		y := float64((i/60)%50) * 12
		ids = append(ids, rel.Insert(Pt(x, y), []byte(kinds[i%2])))
	}
	hist, err := BuildHistogram(rel, 12, 12)
	if err != nil {
		t.Fatal(err)
	}

	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv, err := NewServer(rel, net, ServerConfig{
		Model:     Model{KM: 100, KT: 1, KU: 0.3},
		Estimator: hist,
	})
	if err != nil {
		t.Fatal(err)
	}

	tanksOnly := func(tu Tuple) bool { return string(tu.Payload) == "tank" }
	upper := func(p []byte) []byte { return []byte(strings.ToUpper(string(p))) }
	queries := []Query{
		RangeQuery(1, R(0, 0, 300, 300)),
		RangeQuery(2, R(300, 0, 600, 300)),
		FilteredQuery(3, R(150, 50, 450, 250), tanksOnly), // overlaps 1 and 2
		{ID: 4, Region: R(0, 300, 200, 500), Project: upper},
	}
	clients := map[int]*Client{}
	for i, q := range queries {
		clients[i] = NewClient(i, q)
		clients[i].EnableCache()
		if err := srv.Subscribe(i, q); err != nil {
			t.Fatal(err)
		}
	}

	cy, err := srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCycle(cy, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := net.Subscribe(0, 8192)
	if err != nil {
		t.Fatal(err)
	}

	// Full cycle, then churn + two delta cycles.
	if _, err := srv.PublishDelta(cy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rel.Insert(Pt(float64(i%60)*10+1, float64(i%50)*12+1), []byte("tank"))
	}
	for i := 0; i < 80; i++ {
		rel.Delete(ids[i*3])
	}
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := srv.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	for _, msg := range drain(sub) {
		for _, c := range clients {
			c.Handle(msg)
		}
	}

	for i, c := range clients {
		q := queries[i]
		got := c.Answer(q.ID)
		want := q.Answer(rel)
		if len(got) != len(want) {
			t.Fatalf("client %d: view %d tuples, database %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].ID != want[j].ID || string(got[j].Payload) != string(want[j].Payload) {
				t.Fatalf("client %d: tuple %d mismatch (%q vs %q)",
					i, j, got[j].Payload, want[j].Payload)
			}
		}
	}
	// The projected client actually received uppercase payloads.
	if ans := clients[3].Answer(4); len(ans) > 0 && string(ans[0].Payload) != strings.ToUpper(string(ans[0].Payload)) {
		t.Fatal("projection not applied")
	}
	// The filtered client saw only tanks.
	for _, tu := range clients[2].Answer(3) {
		if string(tu.Payload) != "tank" {
			t.Fatalf("filter leaked %q", tu.Payload)
		}
	}
}
