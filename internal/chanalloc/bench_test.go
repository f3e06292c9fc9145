package chanalloc

// Micro-benchmarks for the channel-allocation engine at client counts
// well past the exhaustive-feasible range. Every iteration builds a fresh
// Problem: the cache is per-Problem, so reusing one would measure pure
// cache hits instead of an allocator run.

import (
	"math/rand"
	"testing"

	"qsub/internal/cost"
)

// benchModel mirrors the Fig 18/19 experiment model: the large K6 makes
// listener grouping the decisive trade-off.
var benchModel = cost.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000}

func benchProblem(clients int) func() *Problem {
	return func() *Problem {
		rng := rand.New(rand.NewSource(int64(clients)))
		return randomProblem(rng, 2*clients, clients, 3, benchModel)
	}
}

func benchSizes(b *testing.B, bench func(b *testing.B, clients int)) {
	for _, clients := range []int{20, 50, 100} {
		b.Run(byClients(clients), func(b *testing.B) { bench(b, clients) })
	}
}

func byClients(n int) string {
	switch n {
	case 20:
		return "clients=20"
	case 50:
		return "clients=50"
	default:
		return "clients=100"
	}
}

func BenchmarkInitialDistribution(b *testing.B) {
	benchSizes(b, func(b *testing.B, clients int) {
		mk := benchProblem(clients)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			InitialDistribution(mk())
		}
	})
}

func BenchmarkHillClimb(b *testing.B) {
	benchSizes(b, func(b *testing.B, clients int) {
		mk := benchProblem(clients)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := mk()
			HillClimb(p, RandomDistribution(p, 1))
		}
	})
}

func BenchmarkHeuristic(b *testing.B) {
	benchSizes(b, func(b *testing.B, clients int) {
		mk := benchProblem(clients)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Heuristic(mk(), SmartInit, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiStart runs at 20 clients only: at 50 and 100 its eight
// climbs take seconds to a minute for the one op a run gets, a reading
// that is all noise.
func BenchmarkMultiStart(b *testing.B) {
	b.Run(byClients(20), func(b *testing.B) {
		mk := benchProblem(20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := MultiStart(mk(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
