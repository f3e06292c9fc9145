package main

import (
	"fmt"
	"strings"
	"time"

	"qsub/internal/daemon"
	"qsub/internal/metrics"
)

// render formats one dashboard frame from the current /statusz document
// and (when available) the previous poll, whose counter deltas over
// elapsed become the rate column. Pure function of its inputs, so tests
// pin the layout without a daemon.
func render(prev, cur *daemon.Status, elapsed time.Duration, topN int) string {
	var b strings.Builder

	b.WriteString("qsubtop — query subscription daemon\n")
	if bi := cur.Build; bi != nil {
		rev := bi.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev == "" {
			rev = "dev"
		}
		fmt.Fprintf(&b, "build %s (%s)  gomaxprocs %d/%d cpus\n",
			rev, bi.GoVersion, bi.GOMAXPROCS, bi.NumCPU)
	}
	fmt.Fprintf(&b, "sessions %d   channels %d   replans %d",
		cur.Sessions, cur.Channels, cur.Replans)
	if p := cur.Plan; p != nil {
		fmt.Fprintf(&b, "   plan: %d queries → %d sets (cost %.0f, unmerged %.0f)",
			p.Queries, p.MergedSets, p.EstimatedCost, p.InitialCost)
	}
	b.WriteString("\n")
	if ri := cur.Relay; ri != nil {
		state := "connected"
		if !ri.Connected {
			state = "DISCONNECTED"
		}
		fmt.Fprintf(&b, "relay hop %d   upstream %s (%s)   clients %d   reconnects %d\n",
			ri.Hop, ri.Upstream, state, ri.Clients, ri.Reconnects)
	}
	b.WriteString("\n")

	// Rates: counter deltas against the previous poll.
	if prev != nil && prev.Metrics != nil && cur.Metrics != nil && elapsed > 0 {
		rate := func(name string) float64 {
			c, p := cur.Metrics.Counters[name], prev.Metrics.Counters[name]
			if c < p {
				// The counters are uint64 and only ever increase, so a
				// shrinking value means the daemon restarted between
				// polls and reset to zero — not a wrap back from 2^64.
				// Rate the restarted counter from zero instead of
				// underflowing to ~1.8e19/s.
				p = 0
			}
			return float64(c-p) / elapsed.Seconds()
		}
		fmt.Fprintf(&b, "throughput   %8.1f frames/s   %8.1f deliveries/s   %s/s   %.2f cycles/s\n",
			rate("qsub_fanout_frames_written_total"),
			rate("qsub_fanout_deliveries_total"),
			byteRate(rate("qsub_fanout_bytes_total")),
			cycleRate(prev, cur, elapsed))
		if cur.Relay != nil {
			fmt.Fprintf(&b, "relay ingest %8.1f frames/s   %s/s upstream\n",
				rate("qsub_relay_frames_total"),
				byteRate(rate("qsub_relay_bytes_total")))
		}
	}

	// Stage breakdown from the cycle-stage histogram vec.
	if cur.Metrics != nil {
		b.WriteString("pipeline stages (all cycles)\n")
		fmt.Fprintf(&b, "  %-8s %10s %10s %10s %8s\n", "stage", "mean", "p90", "p99", "count")
		for _, stage := range metrics.CycleStages {
			h, ok := cur.Metrics.Histograms[`qsub_cycle_stage_seconds{stage="`+stage+`"}`]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-8s %10s %10s %10s %8d\n", stage,
				secs(h.Mean()), secs(h.Quantile(0.90)), secs(h.Quantile(0.99)), h.Count)
		}
		b.WriteString("\n")
	}

	// Recent cycles from the pipeline ledger, newest last.
	if n := len(cur.RecentCycles); n > 0 {
		b.WriteString("recent cycles\n")
		fmt.Fprintf(&b, "  %6s %-12s %9s %5s %6s %9s %10s %10s %10s %10s\n",
			"cycle", "mode", "shards", "moved", "msgs", "bytes", "plan", "encode", "fanout", "write")
		lo := n - 5
		if lo < 0 {
			lo = 0
		}
		for _, rec := range cur.RecentCycles[lo:] {
			mode := rec.Mode
			if rec.Sharded {
				mode += "/sharded"
			}
			if rec.Delta {
				mode += " Δ"
			}
			write := secs(rec.WriteSeconds)
			if rec.WritePending {
				write = "pending"
			}
			// solved/reused tasks of the sharded planner, "-" when the
			// cycle ran no sharded plan.
			shards := "-"
			if rec.ShardsSolved+rec.ShardsReused > 0 {
				shards = fmt.Sprintf("%d/%d", rec.ShardsSolved, rec.ShardsReused)
			}
			fmt.Fprintf(&b, "  %6d %-12s %9s %5d %6d %9s %10s %10s %10s %10s\n",
				rec.Cycle, mode, shards, rec.SessionsMoved, rec.Messages, byteCount(rec.PayloadBytes),
				secs(rec.PlanSeconds), secs(rec.EncodeSeconds), secs(rec.FanoutSeconds), write)
		}
		b.WriteString("\n")
	}

	// Session lag: watermark gauges + staleness quantiles.
	if cur.Metrics != nil {
		g := cur.Metrics.Gauges
		fmt.Fprintf(&b, "lag watermarks   seq lag %d   queue depth %d   staleness %dms\n",
			g["qsub_session_max_seq_lag"], g["qsub_session_max_queue_depth"], g["qsub_session_max_staleness_ms"])
		if h, ok := cur.Metrics.Histograms["qsub_session_lag_seconds"]; ok && h.Count > 0 {
			fmt.Fprintf(&b, "staleness        p50 %s   p90 %s   p99 %s   max %s\n",
				secs(h.Quantile(0.50)), secs(h.Quantile(0.90)), secs(h.Quantile(0.99)), secs(h.Max))
		}
	}

	if len(cur.Laggards) > 0 {
		fmt.Fprintf(&b, "\nlaggiest sessions (top %d)\n", topN)
		fmt.Fprintf(&b, "  %8s %8s %8s %10s %12s\n", "client", "channel", "seq lag", "queue", "staleness")
		n := len(cur.Laggards)
		if topN > 0 && n > topN {
			n = topN
		}
		for _, l := range cur.Laggards[:n] {
			fmt.Fprintf(&b, "  %8d %8d %8d %10d %10dms\n",
				l.ClientID, l.Channel, l.SeqLag, l.QueueDepth, l.StalenessMs)
		}
	}
	return b.String()
}

// cycleRate derives the cycle frequency from ledger ordinals, which
// advance once per RunCycle even when the plan is cached (plans_total
// only counts replans).
func cycleRate(prev, cur *daemon.Status, elapsed time.Duration) float64 {
	if len(prev.RecentCycles) == 0 || len(cur.RecentCycles) == 0 {
		return 0
	}
	c := cur.RecentCycles[len(cur.RecentCycles)-1].Cycle
	p := prev.RecentCycles[len(prev.RecentCycles)-1].Cycle
	if c < p {
		// Ledger ordinals restart at 1 after a daemon restart; clamp the
		// uint64 delta instead of underflowing.
		p = 0
	}
	return float64(c-p) / elapsed.Seconds()
}

// secs formats a duration given in (possibly fractional) seconds.
func secs(s float64) string {
	if s <= 0 {
		return "0"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func byteCount(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func byteRate(bps float64) string {
	switch {
	case bps >= 1<<20:
		return fmt.Sprintf("%.1f MiB", bps/(1<<20))
	case bps >= 1<<10:
		return fmt.Sprintf("%.1f KiB", bps/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", bps)
	}
}
