// Package client implements the operating-unit side of the subscription
// system: a client listens on its assigned multicast channel, filters
// messages by header, applies the extractor of each of its queries to the
// merged payload (§3.1), and accumulates per-query answers. It keeps the
// accounting the cost model charges clients for — irrelevant bytes
// extracted away and messages filtered — plus sequence-gap detection for
// the lossy-network failure mode and an optional object cache (future
// work §11).
package client

import (
	"sort"
	"sync"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// Stats is the client-side accounting of one client.
type Stats struct {
	// MessagesSeen counts all messages received on the channel.
	MessagesSeen int
	// MessagesAddressed counts messages whose header includes this
	// client.
	MessagesAddressed int
	// RelevantBytes is the payload volume that belonged to this
	// client's query answers.
	RelevantBytes int
	// IrrelevantBytes is the payload volume of addressed messages that
	// the extractors discarded — the per-client share of U(Q,M).
	IrrelevantBytes int
	// FilteredBytes is the payload volume of messages not addressed to
	// this client at all (the k6 filtering work of §4).
	FilteredBytes int
	// GapsDetected counts sequence-number gaps (lost messages).
	GapsDetected int
	// CacheHits counts tuples skipped by the object cache.
	CacheHits int
	// LastPublishedUnixNano is the publish timestamp of the newest
	// handled message, zero when frames carry no timestamps. Together
	// with LastHandledUnixNano it gives the client's current staleness.
	LastPublishedUnixNano int64
	// LastHandledUnixNano is the local receive time of the newest
	// timestamped message (only tracked when timestamps are present, so
	// untimestamped streams pay no clock reads).
	LastHandledUnixNano int64
}

// QueryStats is the per-query accounting of one client.
type QueryStats struct {
	// Tuples is the number of distinct tuples currently in the answer.
	Tuples int
	// BytesReceived is the cumulative payload volume attributed to this
	// query across all handled messages.
	BytesReceived int
	// Messages counts the messages that contributed to this query.
	Messages int
}

// entry is one subscription's extractor state: the query, its accumulated
// answer, its stats, and the per-message scratch counters Handle folds
// into the stats after each extraction pass. Entries live in a slice
// sorted by query id, so the per-tuple hot loop touches contiguous
// structs instead of hashing into three parallel maps.
type entry struct {
	q      query.Query
	answer map[uint64]relation.Tuple
	stats  QueryStats
	// Per-message scratch, always zeroed between Handle calls.
	scratchBytes   int
	scratchTouched bool
}

// Client consumes one subscription and maintains answers per query.
// Methods are safe for concurrent use with a running Consume loop.
type Client struct {
	id int

	mu      sync.Mutex
	entries []entry // sorted by entry.q.ID
	cache   map[uint64]bool
	caching bool
	// Sequence high-water mark of the channel of the last message.
	seqChannel int
	lastSeq    uint64
	stats      Stats
	// resolved is Handle's per-message scratch mapping the header's
	// query ids to entry indices (-1 when the id is not subscribed);
	// reused across messages so steady-state handling does not allocate.
	resolved []int

	// Optional nil-safe extractor instrumentation (see SetMetrics).
	mKept     *metrics.Counter
	mFiltered *metrics.Counter
}

// New creates a client with the given id and subscription queries.
func New(id int, qs ...query.Query) *Client {
	c := &Client{id: id}
	for _, q := range qs {
		c.addQueryLocked(q)
	}
	return c
}

// ID returns the client identifier used in message headers.
func (c *Client) ID() int { return c.id }

// SetMetrics attaches extractor counters: kept accumulates tuples at
// least one query matched, filtered counts messages discarded as
// unaddressed. Either may be nil; the handles are allocation-free, so
// the Handle zero-alloc pin holds with metrics enabled.
func (c *Client) SetMetrics(kept, filtered *metrics.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mKept = kept
	c.mFiltered = filtered
}

// find returns the index of the entry for the query id, or -1.
func (c *Client) find(id query.ID) int {
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.entries[mid].q.ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.entries) && c.entries[lo].q.ID == id {
		return lo
	}
	return -1
}

// addQueryLocked inserts or replaces the entry for q, keeping the slice
// sorted by id. Replacing keeps the accumulated answer and stats, like
// re-registering a query always has.
func (c *Client) addQueryLocked(q query.Query) {
	if i := c.find(q.ID); i >= 0 {
		c.entries[i].q = q
		return
	}
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].q.ID > q.ID })
	c.entries = append(c.entries, entry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = entry{q: q, answer: make(map[uint64]relation.Tuple)}
}

// EnableCache turns on the object cache: tuples already received (by id)
// are recognized and counted as cache hits instead of being re-stored.
func (c *Client) EnableCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caching = true
	if c.cache == nil {
		c.cache = make(map[uint64]bool)
	}
}

// AddQuery registers an additional subscription query.
func (c *Client) AddQuery(q query.Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addQueryLocked(q)
}

// RemoveQuery drops a subscription query and its accumulated answer.
func (c *Client) RemoveQuery(id query.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(id); i >= 0 {
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	}
}

// Handle processes one message: filtering, extraction, accounting.
func (c *Client) Handle(msg multicast.Message) {
	var now int64
	if msg.PublishedUnixNano != 0 {
		now = time.Now().UnixNano()
	}
	c.HandleAt(&msg, now)
}

// HandleAt is Handle for a caller that has already read the clock for
// this message: nowUnixNano is the local receive time, used only when the
// message carries a publish timestamp. It retains no part of msg but the
// payloads of the tuples it keeps.
func (c *Client) HandleAt(msg *multicast.Message, nowUnixNano int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.MessagesSeen++
	// Sequence numbers are per channel, and a channel the client left
	// went on publishing without it: a message from another channel than
	// the last one starts a new mark instead of being measured against
	// the old one.
	if msg.Channel != c.seqChannel {
		c.seqChannel = msg.Channel
		c.lastSeq = 0
	}
	if c.lastSeq != 0 && msg.Seq > c.lastSeq+1 {
		c.stats.GapsDetected += int(msg.Seq - c.lastSeq - 1)
	}
	if msg.Seq > c.lastSeq {
		c.lastSeq = msg.Seq
	}
	if msg.PublishedUnixNano != 0 {
		c.stats.LastPublishedUnixNano = msg.PublishedUnixNano
		c.stats.LastHandledUnixNano = nowUnixNano
	}

	hdr, addressed := msg.EntryFor(c.id)
	payload := msg.PayloadBytes()
	if !addressed {
		c.stats.FilteredBytes += payload
		c.mFiltered.Inc()
		return
	}
	c.stats.MessagesAddressed++

	// Resolve the header's query ids against the sorted entries once per
	// message; the per-tuple loop then walks plain indices.
	resolved := c.resolved[:0]
	for _, qid := range hdr.QueryIDs {
		resolved = append(resolved, c.find(qid))
	}
	c.resolved = resolved

	for _, removed := range msg.Removed {
		for _, ei := range resolved {
			if ei >= 0 {
				delete(c.entries[ei].answer, removed)
			}
		}
		if c.caching {
			delete(c.cache, removed)
		}
	}

	relevant := 0
	var kept uint64
	for _, t := range msg.Tuples {
		used := false
		for _, ei := range resolved {
			if ei < 0 {
				continue
			}
			e := &c.entries[ei]
			if !e.q.Matches(t) {
				continue
			}
			used = true
			if c.caching && c.cache[t.ID] {
				c.stats.CacheHits++
			}
			stored := t
			if e.q.Project != nil {
				stored.Payload = e.q.Project(t.Payload)
			}
			e.answer[t.ID] = stored
			e.scratchBytes += t.Size()
			e.scratchTouched = true
		}
		if used {
			relevant += t.Size()
			kept++
			if c.caching {
				c.cache[t.ID] = true
			}
		}
	}
	if kept > 0 {
		c.mKept.Add(kept)
	}
	for _, ei := range resolved {
		if ei < 0 {
			continue
		}
		e := &c.entries[ei]
		if e.scratchTouched {
			e.stats.Messages++
			e.stats.BytesReceived += e.scratchBytes
			e.stats.Tuples = len(e.answer)
			e.scratchBytes = 0
			e.scratchTouched = false
		}
	}
	c.stats.RelevantBytes += relevant
	c.stats.IrrelevantBytes += payload - relevant
}

// Consume drains the subscription until it is cancelled or its network
// closed, handling every message. It is intended to run on its own
// goroutine.
func (c *Client) Consume(sub *multicast.Subscription) {
	for {
		batch, ok := sub.NextBatch()
		for _, msg := range batch {
			c.Handle(msg)
		}
		if !ok {
			return
		}
	}
}

// Answer returns the accumulated answer for the query, sorted by tuple
// id.
func (c *Client) Answer(id query.ID) []relation.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(id)
	if i < 0 {
		return []relation.Tuple{}
	}
	m := c.entries[i].answer
	out := make([]relation.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Queries returns the client's current subscription queries.
func (c *Client) Queries() []query.Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]query.Query, 0, len(c.entries))
	for i := range c.entries {
		out = append(out, c.entries[i].q)
	}
	return out
}

// Stats returns a snapshot of the client accounting.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// QueryStatsFor returns the per-query accounting for one subscription.
func (c *Client) QueryStatsFor(id query.ID) QueryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(id)
	if i < 0 {
		return QueryStats{}
	}
	qs := c.entries[i].stats
	qs.Tuples = len(c.entries[i].answer)
	return qs
}
