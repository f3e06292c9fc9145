// Package client implements the operating-unit side of the subscription
// system: a client listens on its assigned multicast channel, filters
// messages by header, applies the extractor of each of its queries to the
// merged payload (§3.1), and accumulates per-query answers. It keeps the
// accounting the cost model charges clients for — irrelevant bytes
// extracted away and messages filtered — plus sequence-gap detection for
// the lossy-network failure mode.
package client

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"qsub/internal/geom"
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
// answer, its stats, and the per-message scratch Handle folds into the
// view and the stats after each extraction pass. Entries live in a slice
// sorted by query id, so the per-tuple hot loop touches contiguous
// structs.
type entry struct {
	q query.Query
	// rect is q.Region when that is a rectangle (isRect), the common
	// case, tested without the interface call.
	rect   geom.Rect
	isRect bool
	view   view
	stats  QueryStats
	// Per-message scratch, always reset between Handle calls: the
	// indices into the message's tuples this query kept, in message
	// order, and their bytes.
	run          []int32
	scratchBytes int
}

// setQuery sets the entry's query and its rectangle fast path.
func (e *entry) setQuery(q query.Query) {
	e.q = q
	e.rect, e.isRect = q.Region.(geom.Rect)
}

// view is one query's accumulated answer: its tuples in ascending id
// order, each removed one tombstoned in place until tombstones make up
// more than half of the view, when it compacts. Publish ships tuples in
// id order and assigns ids rising, so a message's matches usually extend
// the view at its end; the rules below keep every message O(m log m + the
// part of the view it spans) for m matches, whatever their order:
//
//   - merge takes a message's matches as one run: appended when it starts
//     past the last id, merged linearly otherwise (ids already present
//     overwritten in place, then the absent ones placed from the back),
//     sorted once only when the message was out of order;
//   - remove is a binary search and a tombstone;
//   - Answer is one copy, with no sort.
type view struct {
	tuples []relation.Tuple
	// dead is parallel to tuples once the view has seen a removal since
	// it last compacted, and nil before: a view nothing was removed from
	// carries no tombstone slice.
	dead  []bool
	ndead int
}

// live returns the number of tuples in the answer.
func (v *view) live() int { return len(v.tuples) - v.ndead }

// remove tombstones the tuple with the given id, if the view holds it.
func (v *view) remove(id uint64) {
	i, ok := slices.BinarySearchFunc(v.tuples, id, func(t relation.Tuple, id uint64) int { return cmp.Compare(t.ID, id) })
	if !ok || v.dead != nil && v.dead[i] {
		return
	}
	if v.dead == nil {
		v.dead = make([]bool, len(v.tuples))
	}
	v.dead[i] = true
	v.ndead++
	if 2*v.ndead > len(v.tuples) {
		v.compact()
	}
}

// compact drops the tombstoned slots, keeping id order.
func (v *view) compact() {
	n := 0
	for i, t := range v.tuples {
		if !v.dead[i] {
			v.tuples[n] = t
			n++
		}
	}
	clear(v.tuples[n:]) // release the dropped payloads
	v.tuples = v.tuples[:n]
	v.dead = nil
	v.ndead = 0
}

// merge folds src[k] for every k of run into the view; run must be
// strictly rising in id (see sortRun). A tuple whose id the view holds
// replaces it, reviving it if it was removed.
func (v *view) merge(src []relation.Tuple, run []int32) {
	n := len(v.tuples)
	if n == 0 || src[run[0]].ID > v.tuples[n-1].ID {
		v.tuples = slices.Grow(v.tuples, len(run))
		for _, k := range run {
			v.tuples = append(v.tuples, src[k])
		}
		if v.dead != nil {
			v.dead = append(v.dead, make([]bool, len(run))...)
		}
		return
	}
	// Overwrite the ids the view holds and count the absent ones, from
	// where the run's first id lands.
	fresh := 0
	i := sort.Search(n, func(i int) bool { return v.tuples[i].ID >= src[run[0]].ID })
	for _, k := range run {
		t := src[k]
		for i < n && v.tuples[i].ID < t.ID {
			i++
		}
		if i == n || v.tuples[i].ID != t.ID {
			fresh++
			continue
		}
		v.tuples[i] = t
		if v.dead != nil && v.dead[i] {
			v.dead[i] = false
			v.ndead--
		}
	}
	if fresh == 0 {
		return
	}
	// Place the absent ones from the back, shifting the view's tail.
	v.tuples = append(v.tuples, make([]relation.Tuple, fresh)...)
	tombs := v.dead != nil
	if tombs {
		v.dead = append(v.dead, make([]bool, fresh)...)
	}
	i, w := n-1, n+fresh-1
	for j := len(run) - 1; j >= 0; j-- {
		t := src[run[j]]
		for i >= 0 && v.tuples[i].ID > t.ID {
			v.tuples[w] = v.tuples[i]
			if tombs {
				v.dead[w] = v.dead[i]
			}
			i--
			w--
		}
		if i >= 0 && v.tuples[i].ID == t.ID {
			continue // overwritten above
		}
		v.tuples[w] = t
		if tombs {
			v.dead[w] = false
		}
		w--
	}
}

// sortRun returns the run of indices into src ordered by strictly rising
// tuple id. A run already in that order, the one publish sends, is
// returned as is after one check; otherwise it is sorted once by id and
// message position, and of equal ids only the last in the message stays,
// as the last write won in a map.
func sortRun(src []relation.Tuple, run []int32) []int32 {
	rising := true
	for k := 1; k < len(run) && rising; k++ {
		rising = src[run[k-1]].ID < src[run[k]].ID
	}
	if rising {
		return run
	}
	slices.SortFunc(run, func(a, b int32) int {
		if c := cmp.Compare(src[a].ID, src[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	n := 0
	for k, x := range run {
		if k+1 < len(run) && src[run[k+1]].ID == src[x].ID {
			continue
		}
		run[n] = x
		n++
	}
	return run[:n]
}

// Client consumes one subscription and maintains answers per query.
// Methods are safe for concurrent use with a running Consume loop.
type Client struct {
	id int

	mu      sync.Mutex
	entries []entry // sorted by entry.q.ID
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
		c.entries[i].setQuery(q)
		return
	}
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].q.ID > q.ID })
	c.entries = append(c.entries, entry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = entry{}
	c.entries[i].setQuery(q)
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
// payloads of the tuples it keeps. It reports whether msg's sequence
// number skipped past the channel's mark, i.e. whether messages were lost
// before it (the gap GapsDetected counts).
func (c *Client) HandleAt(msg *multicast.Message, nowUnixNano int64) (gap bool) {
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
	gap = c.lastSeq != 0 && msg.Seq > c.lastSeq+1
	if gap {
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
		return gap
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
				c.entries[ei].view.remove(removed)
			}
		}
	}

	relevant := 0
	var kept uint64
	for k, t := range msg.Tuples {
		used := false
		for _, ei := range resolved {
			if ei < 0 {
				continue
			}
			e := &c.entries[ei]
			if e.isRect {
				if !e.rect.Contains(t.Pos) {
					continue
				}
			} else if !e.q.Region.Contains(t.Pos) {
				continue
			}
			used = true
			e.run = append(e.run, int32(k))
			e.scratchBytes += t.Size()
		}
		if used {
			relevant += t.Size()
			kept++
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
		if len(e.run) > 0 {
			e.view.merge(msg.Tuples, sortRun(msg.Tuples, e.run))
			e.run = e.run[:0]
			e.stats.Messages++
			e.stats.BytesReceived += e.scratchBytes
			e.stats.Tuples = e.view.live()
			e.scratchBytes = 0
		}
	}
	c.stats.RelevantBytes += relevant
	c.stats.IrrelevantBytes += payload - relevant
	return gap
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

// Answer returns a copy of the accumulated answer for the query, sorted
// by tuple id.
func (c *Client) Answer(id query.ID) []relation.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(id)
	if i < 0 {
		return []relation.Tuple{}
	}
	v := &c.entries[i].view
	out := make([]relation.Tuple, 0, v.live())
	if v.ndead == 0 {
		return append(out, v.tuples...)
	}
	for k, t := range v.tuples {
		if !v.dead[k] {
			out = append(out, t)
		}
	}
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
	qs.Tuples = c.entries[i].view.live()
	return qs
}
