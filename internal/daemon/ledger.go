// Cycle pipeline ledger: one record per RunCycle correlating the cycle
// id and replan mode with per-stage wall time, kept in a bounded ring
// for /statusz and mirrored into trace events and the
// qsub_cycle_stage_seconds histogram vec. The plan, encode and fanout
// stages are measured inline; the write stage — session writers draining the
// cycle's frames to the kernel — completes after RunCycle returns, so a
// short-lived finalizer goroutine watches the frames-written counter
// reach the cycle's delivery target and stamps the record when it does.
package daemon

import (
	"sync"
	"time"

	"qsub/internal/trace"
)

// ledgerCapacity bounds the record ring kept for /statusz.
const ledgerCapacity = 64

// writeStageDeadline caps how long a cycle's finalizer waits for the
// session writers to drain before recording the write stage as incomplete.
const writeStageDeadline = 30 * time.Second

// CycleRecord is one pipeline-ledger entry.
type CycleRecord struct {
	// Cycle is the 1-based RunCycle ordinal.
	Cycle uint64 `json:"cycle"`
	// StartUnixNano is when the cycle began.
	StartUnixNano int64 `json:"startUnixNano"`
	// Mode says how the plan was obtained: "cached" (no replan),
	// "unchanged" (a replan found the subscriptions as they were),
	// "incremental" (allocation inherited, solved only around the churn)
	// or "full" (complete re-solve). The planner reports it on the cycle
	// it returns (server.PlanInfo), as it does the three fields below.
	Mode string `json:"mode"`
	// Sharded marks plans produced by the sharded pipeline.
	Sharded bool `json:"sharded,omitempty"`
	// Delta marks delta-publish cycles.
	Delta bool `json:"delta,omitempty"`
	// BudgetExhausted marks plans cut short by the anytime budget.
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
	// ShardsSolved and ShardsReused count the sharded planner's
	// (channel, shard) tasks solved by this cycle's plan and taken over
	// from the previous one.
	ShardsSolved int `json:"shardsSolved,omitempty"`
	ShardsReused int `json:"shardsReused,omitempty"`
	// SessionsMoved counts the sessions this cycle's plan bound to a
	// channel they were not already attached to.
	SessionsMoved int `json:"sessionsMoved,omitempty"`

	// Publish volume, as in server.Report.
	Messages     int `json:"messages"`
	Tuples       int `json:"tuples"`
	PayloadBytes int `json:"payloadBytes"`

	// Stage wall times, in seconds. WriteSeconds measures publish
	// return → last frame of the cycle handed to the kernel; it is
	// zero while WritePending is true.
	PlanSeconds   float64 `json:"planSeconds"`
	EncodeSeconds float64 `json:"encodeSeconds"`
	FanoutSeconds float64 `json:"fanoutSeconds"`
	WriteSeconds  float64 `json:"writeSeconds"`
	// WritePending is true until the session writers have drained the
	// cycle's frames (or the finalizer gave up at its deadline).
	WritePending bool `json:"writePending,omitempty"`
}

// cycleLedger is the bounded ring of recent cycle records.
type cycleLedger struct {
	mu   sync.Mutex
	recs []CycleRecord // newest last, at most ledgerCapacity
	next uint64        // next cycle ordinal
}

// begin assigns the next cycle ordinal.
func (l *cycleLedger) begin() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add appends a record, evicting the oldest past capacity.
func (l *cycleLedger) add(rec CycleRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec)
	if len(l.recs) > ledgerCapacity {
		l.recs = l.recs[len(l.recs)-ledgerCapacity:]
	}
}

// finalizeWrite stamps the write stage of the given cycle, if its
// record is still in the ring.
func (l *cycleLedger) finalizeWrite(cycle uint64, seconds float64, completed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.recs {
		if l.recs[i].Cycle == cycle {
			l.recs[i].WriteSeconds = seconds
			l.recs[i].WritePending = !completed
			return
		}
	}
}

// recent returns a copy of the ring, newest last.
func (l *cycleLedger) recent() []CycleRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]CycleRecord, len(l.recs))
	copy(out, l.recs)
	return out
}

// finishCycle records the completed publish stages, then watches the
// session writers drain the cycle's frames to finish the write stage. The
// frames-written counter is monotone and shared across cycles, so the
// target is its absolute value once this cycle's deliveries are all
// enqueued; reaching it means every frame up to and including this
// cycle's has been handed to the kernel.
func (d *Daemon) finishCycle(rec CycleRecord, writeTarget uint64) {
	rec.WritePending = true
	d.ledger.add(rec)
	d.metrics.CycleStageSeconds.At("plan").Observe(rec.PlanSeconds)
	d.metrics.CycleStageSeconds.At("encode").Observe(rec.EncodeSeconds)
	d.metrics.CycleStageSeconds.At("fanout").Observe(rec.FanoutSeconds)

	writeStart := time.Now()
	finish := func(completed bool) {
		secs := time.Since(writeStart).Seconds()
		d.ledger.finalizeWrite(rec.Cycle, secs, completed)
		if completed {
			d.metrics.CycleStageSeconds.At("write").Observe(secs)
		}
		rec.WriteSeconds = secs
		rec.WritePending = !completed
		d.record(trace.Event{Kind: trace.KindCycle,
			Cycle: rec.Cycle, Mode: rec.Mode, Delta: rec.Delta,
			Messages: rec.Messages, Tuples: rec.Tuples, PayloadBytes: rec.PayloadBytes,
			PlanSeconds:   rec.PlanSeconds,
			EncodeSeconds: rec.EncodeSeconds,
			FanoutSeconds: rec.FanoutSeconds,
			WriteSeconds:  rec.WriteSeconds,
		})
	}
	if d.metrics.FanoutFramesWritten.Load() >= writeTarget {
		finish(true)
		return
	}
	// Deliveries are still queued; poll from a throwaway goroutine so
	// RunCycle returns at fanout completion, as before.
	go func() {
		deadline := writeStart.Add(writeStageDeadline)
		for time.Now().Before(deadline) {
			if d.metrics.FanoutFramesWritten.Load() >= writeTarget {
				finish(true)
				return
			}
			if d.hub.Closed() {
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
		finish(false)
	}()
}
