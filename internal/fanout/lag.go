// Per-session lag tracking: a sweep compares each session's
// last-written sequence number against the channel head and publishes
// fleet watermarks (worst seq lag, deepest queue, oldest staleness) as
// gauges plus a staleness histogram. /statusz additionally exposes the
// top-N laggiest sessions so an operator can name the slow consumers,
// not just count them.
package fanout

import "sort"

// SessionLag is one session's delivery-lag snapshot.
type SessionLag struct {
	ClientID int `json:"clientId"`
	// Channel is the session's current channel, -1 when unbound; for a
	// relay feed, the channel it trails furthest on.
	Channel int `json:"channel"`
	// SeqLag is how many sequence numbers the session trails the
	// channel head (head seq minus last written seq).
	SeqLag uint64 `json:"seqLag"`
	// QueueDepth is the session's unwritten delivery queue length.
	QueueDepth int `json:"queueDepth"`
	// StalenessMs is how long ago the last frame was written to this
	// session, in milliseconds; 0 before any write.
	StalenessMs int64 `json:"stalenessMs"`
}

// lags snapshots every live session's lag at nowNano.
func (h *Hub) lags(nowNano int64) []SessionLag {
	sessions := h.Sessions()
	out := make([]SessionLag, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		net, channels, seqs := s.net, s.channels, s.seqs
		s.mu.Unlock()
		lag := SessionLag{ClientID: s.ClientID, Channel: -1, QueueDepth: s.q.Depth()}
		// A relay feed's entry is its worst channel, so a relay that
		// stalls on any channel surfaces just like a slow client.
		for _, ch := range channels {
			var seqLag uint64
			if head, last := net.CurrentSeq(ch), seqs[ch].Load(); head > last {
				seqLag = head - last
			}
			if lag.Channel < 0 || seqLag > lag.SeqLag {
				lag.Channel, lag.SeqLag = ch, seqLag
			}
		}
		if last := s.lastWriteNano.Load(); last != 0 && nowNano > last {
			lag.StalenessMs = (nowNano - last) / 1e6
		}
		out = append(out, lag)
	}
	return out
}

// UpdateLagWatermarks recomputes the fleet lag gauges from a fresh
// session sweep and feeds the worst staleness into the
// qsub_session_lag_seconds histogram. With no sessions every watermark
// resets to zero, so a drained process reads as caught-up.
func (h *Hub) UpdateLagWatermarks() {
	lags := h.lags(h.now())
	var maxSeqLag uint64
	var maxDepth int
	var maxStaleMs int64
	for _, l := range lags {
		maxSeqLag = max(maxSeqLag, l.SeqLag)
		maxDepth = max(maxDepth, l.QueueDepth)
		maxStaleMs = max(maxStaleMs, l.StalenessMs)
	}
	h.metrics.SessionMaxSeqLag.Set(int64(maxSeqLag))
	h.metrics.SessionMaxQueueDepth.Set(int64(maxDepth))
	h.metrics.SessionMaxStaleMs.Set(maxStaleMs)
	if len(lags) > 0 {
		h.metrics.SessionLagSeconds.Observe(float64(maxStaleMs) / 1e3)
	}
}

// TopLaggards returns the n laggiest sessions, ordered by staleness
// then sequence lag (worst first), for /statusz and qsubtop.
func (h *Hub) TopLaggards(n int) []SessionLag {
	lags := h.lags(h.now())
	sort.Slice(lags, func(i, j int) bool {
		if lags[i].StalenessMs != lags[j].StalenessMs {
			return lags[i].StalenessMs > lags[j].StalenessMs
		}
		return lags[i].SeqLag > lags[j].SeqLag
	})
	if n > 0 && len(lags) > n {
		lags = lags[:n]
	}
	return lags
}
