package server

import (
	"fmt"
	"math/rand"
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// benchWorld builds a populated relation, a network with no subscribers
// (publish cost without delivery fan-out), and a planned server with
// nClients clients of nQueries queries each.
func benchWorld(b testing.TB, nTuples, nClients, nQueries, channels int) (*Server, *relation.Relation, *Cycle) {
	b.Helper()
	bounds := geom.R(0, 0, 1000, 1000)
	rel := relation.MustNew(bounds, 32, 32)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nTuples; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	net, err := multicast.NewNetwork(channels)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(rel, net, Config{Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}})
	if err != nil {
		b.Fatal(err)
	}
	qid := query.ID(1)
	for c := 0; c < nClients; c++ {
		for q := 0; q < nQueries; q++ {
			x := rng.Float64() * 900
			y := rng.Float64() * 900
			w := 20 + rng.Float64()*80
			if err := s.Subscribe(c, query.Range(qid, geom.R(x, y, x+w, y+w))); err != nil {
				b.Fatal(err)
			}
			qid++
		}
	}
	cy, err := s.Plan()
	if err != nil {
		b.Fatal(err)
	}
	return s, rel, cy
}

// BenchmarkPublishFull measures the steady-state full (non-delta)
// publish: every merged query re-executed against the whole relation.
func BenchmarkPublishFull(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			s, _, cy := benchWorld(b, n, 40, 2, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Publish(cy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublishDelta measures a continuous cycle: deltaFrac of the
// relation is inserted and a fifth as many live tuples are deleted
// between cycles (merge-deliver's ratio), then PublishDelta ships the
// inserts and the removal notices. "plan=reused" publishes one planned
// cycle again and again, so inserts and removals are matched against the
// cycle's region index; "plan=replanned" publishes a fresh copy of the
// same plan each cycle, as a server that replans every cycle does, so
// each round is its cycle's first and probes the per-round batch grid.
func BenchmarkPublishDelta(b *testing.B) {
	for _, plan := range []string{"reused", "replanned"} {
		for _, n := range []int{10000, 100000} {
			for _, deltaFrac := range []float64{0.01, 0.20} {
				for _, deletes := range []bool{false, true} {
					b.Run(fmt.Sprintf("plan=%s/tuples=%d/delta=%g/deletes=%v", plan, n, deltaFrac, deletes), func(b *testing.B) {
						benchPublishDelta(b, n, deltaFrac, deletes, plan == "replanned")
					})
				}
			}
		}
	}
}

func benchPublishDelta(b *testing.B, n int, deltaFrac float64, deletes, replan bool) {
	s, rel, cy := benchWorld(b, n, 40, 2, 1)
	// The first delta call establishes the watermark.
	if _, err := s.PublishDelta(cy); err != nil {
		b.Fatal(err)
	}
	var live []uint64
	for _, t := range rel.All() {
		live = append(live, t.ID)
	}
	rng := rand.New(rand.NewSource(99))
	batch := int(float64(n) * deltaFrac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			live = append(live, rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload")))
		}
		for j := 0; deletes && j < batch/5; j++ {
			k := rng.Intn(len(live))
			rel.Delete(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if replan {
			cy = samePlan(cy)
		}
		b.StartTimer()
		if _, err := s.PublishDelta(cy); err != nil {
			b.Fatal(err)
		}
	}
}

// samePlan returns a cycle with cy's plan and none of its publish state,
// as a Replan that planned the same cycle again would: publishing it
// builds the schedule and the region index anew, and its first round is
// the cycle's first.
func samePlan(cy *Cycle) *Cycle {
	return &Cycle{
		Queries:       cy.Queries,
		Owners:        cy.Owners,
		ClientChannel: cy.ClientChannel,
		ChannelPlans:  cy.ChannelPlans,
		EstimatedCost: cy.EstimatedCost,
		InitialCost:   cy.InitialCost,
		Info:          cy.Info,
		shard:         cy.shard,
		churn:         cy.churn,
	}
}
