package server

import (
	"math"
	"sync"
)

// DriftMonitor closes the loop between the cost model's size estimates
// and the bytes actually published, supporting the dynamic scenario of
// §11: as the database churns, a plan chosen under stale estimates keeps
// being reused, and the monitor tells the operator (or a cycle driver)
// when the divergence justifies a re-plan.
//
// Drift is measured per cycle as |actual − estimated| / max(estimated, 1)
// over the total payload volume, smoothed with an exponential moving
// average so a single bursty period does not trigger a re-plan.
type DriftMonitor struct {
	// Alpha is the EMA smoothing factor in (0, 1]; zero means 0.3.
	Alpha float64
	// Threshold is the smoothed relative drift that ShouldReplan
	// reports on; zero means 0.5 (50% divergence).
	Threshold float64

	mu      sync.Mutex
	ema     float64
	samples int
}

// Observe records one cycle's estimated transmitted volume (from the
// cycle's plan under the cost model's size function, in bytes) against
// the actually published payload bytes. It returns the smoothed drift.
func (m *DriftMonitor) Observe(estimatedBytes, actualBytes float64) float64 {
	alpha := m.Alpha
	if alpha == 0 {
		alpha = 0.3
	}
	drift := math.Abs(actualBytes-estimatedBytes) / math.Max(estimatedBytes, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.samples == 0 {
		m.ema = drift
	} else {
		m.ema = alpha*drift + (1-alpha)*m.ema
	}
	m.samples++
	return m.ema
}

// ShouldReplan reports whether the smoothed drift exceeds the threshold.
// It never fires before two observations so a cold start cannot trigger
// an immediate re-plan.
func (m *DriftMonitor) ShouldReplan() bool {
	threshold := m.Threshold
	if threshold == 0 {
		threshold = 0.5
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples >= 2 && m.ema > threshold
}

// Reset clears the monitor after a re-plan.
func (m *DriftMonitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ema = 0
	m.samples = 0
}

// EstimatedTransmitBytes returns the plan's predicted payload volume per
// full publish: the sum of the estimated sizes of every merged region in
// the cycle. Use it as the estimate input to a DriftMonitor. The planner
// already sized those regions task by task and its sum is returned as
// is; for a cycle Plan or Replan did not build, the regions the cycle
// merged for publishing are sized in channel and set order.
func (s *Server) EstimatedTransmitBytes(cy *Cycle) float64 {
	if cy.shard != nil {
		return cy.shard.TransmitBytes
	}
	total := 0.0
	for _, mp := range cy.publishPlans(s.cfg.Procedure) {
		total += s.cfg.Estimator.SizeBytes(mp.region)
	}
	return total
}
