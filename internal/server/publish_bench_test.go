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
// relation is inserted between cycles, then PublishDelta ships it by
// probing the per-cycle relation.DeltaIndex. The rows keep their
// "indexed" path segment so they line up with the committed ones.
func BenchmarkPublishDelta(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, deltaFrac := range []float64{0.01, 0.20} {
			b.Run(fmt.Sprintf("indexed/tuples=%d/delta=%g", n, deltaFrac), func(b *testing.B) {
				s, rel, cy := benchWorld(b, n, 40, 2, 1)
				// First delta call establishes the watermark.
				if _, err := s.PublishDelta(cy); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(99))
				batch := int(float64(n) * deltaFrac)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < batch; j++ {
						rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
					}
					b.StartTimer()
					if _, err := s.PublishDelta(cy); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
