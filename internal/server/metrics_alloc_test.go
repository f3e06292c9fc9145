package server

import (
	"fmt"
	"testing"

	"qsub/internal/metrics"
)

// publishDeltaAllocs measures steady-state empty-delta PublishDelta
// allocations with the given catalog (nil = uninstrumented). The empty
// delta still publishes one message per merged plan, so the entire
// instrumented per-message loop — channel vec lookups, payload
// accounting, U(Q,M) scan — runs on every call.
func publishDeltaAllocs(t *testing.T, cat *metrics.Catalog) float64 {
	t.Helper()
	s, _, cy := benchWorld(t, 5000, 40, 2, 1)
	s.cfg.Metrics = cat
	// First call establishes the delta watermark; second warms the
	// scratch pools so the measured runs are pure steady state.
	for i := 0; i < 2; i++ {
		if _, err := s.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := s.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPublishDeltaMetricsZeroExtraAllocs is the PR contract: enabling
// the full metrics catalog must not add a single allocation to the
// steady-state publish path.
func TestPublishDeltaMetricsZeroExtraAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	base := publishDeltaAllocs(t, nil)
	instrumented := publishDeltaAllocs(t, metrics.NewCatalog(1))
	if instrumented != base {
		t.Fatalf("PublishDelta with metrics: %v allocs/op, uninstrumented %v — instrumentation must be allocation-free",
			instrumented, base)
	}
}

// BenchmarkPublishDeltaMetrics mirrors BenchmarkPublishDelta's indexed
// steady state with the catalog enabled, so `make bench-compare` (whose
// pattern matches the BenchmarkPublishDelta prefix) gates the
// instrumentation's time overhead alongside its allocation count.
func BenchmarkPublishDeltaMetrics(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		b.Run(fmt.Sprintf("metrics=%t", instrumented), func(b *testing.B) {
			s, _, cy := benchWorld(b, 10000, 40, 2, 1)
			if instrumented {
				s.cfg.Metrics = metrics.NewCatalog(1)
			}
			if _, err := s.PublishDelta(cy); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PublishDelta(cy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
