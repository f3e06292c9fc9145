package server

import (
	"testing"

	"qsub/internal/client"
	"qsub/internal/geom"
	"qsub/internal/query"
)

func TestSchedulerValidation(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 1)
	defer net.Close()
	if _, err := NewScheduler(nil, net, Config{}); err == nil {
		t.Fatal("nil relation should be rejected")
	}
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe(1, query.Range(1, geom.R(0, 0, 10, 10)), 0); err == nil {
		t.Fatal("zero period should be rejected")
	}
	if s.Unsubscribe(1, 1, 5) {
		t.Fatal("unsubscribe from unknown group should report false")
	}
	if _, err := s.GroupCycle(7); err == nil {
		t.Fatal("unknown group cycle should error")
	}
}

func TestSchedulerFiresGroupsAtTheirPeriods(t *testing.T) {
	rel, net := buildWorld(t, 1, 300, 21)
	defer net.Close()
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	// Fast subscription every tick, slow one every 3 ticks.
	fast := query.Range(1, geom.R(0, 0, 400, 400))
	slow := query.Range(2, geom.R(500, 500, 900, 900))
	if err := s.Subscribe(1, fast, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Subscribe(2, slow, 3); err != nil {
		t.Fatal(err)
	}

	fastFired, slowFired := 0, 0
	for tick := 1; tick <= 6; tick++ {
		rep, err := s.Tick(false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Fired {
			switch p {
			case 1:
				fastFired++
			case 3:
				slowFired++
			}
		}
	}
	if fastFired != 6 {
		t.Fatalf("fast group fired %d times over 6 ticks, want 6", fastFired)
	}
	if slowFired != 2 {
		t.Fatalf("slow group fired %d times over 6 ticks, want 2 (ticks 3 and 6)", slowFired)
	}
}

func TestSchedulerGroupsMergeIndependently(t *testing.T) {
	rel, net := buildWorld(t, 1, 500, 22)
	defer net.Close()
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapping queries in the same group must merge; an
	// identical query in another period group must not join them.
	r := geom.R(100, 100, 300, 300)
	s.Subscribe(1, query.Range(1, r), 1)
	s.Subscribe(2, query.Range(2, r), 1)
	s.Subscribe(3, query.Range(3, r), 4)

	cy1, err := s.GroupCycle(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cy1.ChannelPlans[0]); n != 1 {
		t.Fatalf("period-1 group should merge into one set, got %d", n)
	}
	if len(cy1.Queries) != 2 {
		t.Fatalf("period-1 group has %d queries, want 2 (no cross-period merge)", len(cy1.Queries))
	}
	cy4, err := s.GroupCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cy4.Queries) != 1 {
		t.Fatalf("period-4 group has %d queries, want 1", len(cy4.Queries))
	}
}

func TestSchedulerEndToEndDelivery(t *testing.T) {
	rel, net := buildWorld(t, 1, 1000, 23)
	defer net.Close()
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	q1 := query.Range(1, geom.R(0, 0, 500, 500))
	q2 := query.Range(2, geom.R(400, 400, 900, 900))
	s.Subscribe(1, q1, 1)
	s.Subscribe(2, q2, 2)

	c1 := client.New(1, q1)
	c2 := client.New(2, q2)
	sub, _ := net.Subscribe(0, 64)
	done := make(chan struct{})
	go func() {
		for _, msg := range drained(sub) {
			c1.Handle(msg)
			c2.Handle(msg)
		}
		close(done)
	}()

	for tick := 1; tick <= 2; tick++ {
		if _, err := s.Tick(false); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	<-done

	for _, tc := range []struct {
		c *client.Client
		q query.Query
	}{{c1, q1}, {c2, q2}} {
		got, want := tc.c.Answer(tc.q.ID), tc.q.Answer(rel)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("client %d got %d tuples, want %d (nonzero)", tc.c.ID(), len(got), len(want))
		}
	}
}

func TestSchedulerReplansOnlyWhenDirty(t *testing.T) {
	rel, net := buildWorld(t, 1, 100, 24)
	defer net.Close()
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	s.Subscribe(1, query.Range(1, geom.R(0, 0, 100, 100)), 1)
	a, err := s.GroupCycle(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.GroupCycle(1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("clean group should reuse the cached cycle")
	}
	s.Subscribe(1, query.Range(2, geom.R(50, 50, 150, 150)), 1)
	c, err := s.GroupCycle(1)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("dirty group should re-plan")
	}
	if len(c.Queries) != 2 {
		t.Fatalf("re-planned cycle has %d queries, want 2", len(c.Queries))
	}
}

func TestSchedulerDeltaPerGroup(t *testing.T) {
	rel, net := buildWorld(t, 1, 0, 25)
	defer net.Close()
	s, err := NewScheduler(rel, net, Config{Model: testModel})
	if err != nil {
		t.Fatal(err)
	}
	s.Subscribe(1, query.Range(1, geom.R(0, 0, 1000, 1000)), 1)
	rel.Insert(geom.Pt(10, 10), nil)
	rep, err := s.Tick(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.Tuples != 1 {
		t.Fatalf("first delta tick shipped %d tuples, want 1", rep.Report.Tuples)
	}
	rep, err = s.Tick(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.Tuples != 0 {
		t.Fatalf("idle delta tick shipped %d tuples, want 0", rep.Report.Tuples)
	}
	if got := s.Periods(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Periods = %v", got)
	}
}
