package client

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// refClient is the pre-engine map-based extractor, kept verbatim as the
// oracle the slice-based Handle is pinned byte-identical against.
type refClient struct {
	id       int
	queries  map[query.ID]query.Query
	answers  map[query.ID]map[uint64]relation.Tuple
	perQuery map[query.ID]QueryStats
	cache    map[uint64]bool
	caching  bool
	lastSeq  uint64
	stats    Stats
}

func newRef(id int, qs ...query.Query) *refClient {
	r := &refClient{
		id:       id,
		queries:  make(map[query.ID]query.Query),
		answers:  make(map[query.ID]map[uint64]relation.Tuple),
		perQuery: make(map[query.ID]QueryStats),
	}
	for _, q := range qs {
		r.queries[q.ID] = q
		r.answers[q.ID] = make(map[uint64]relation.Tuple)
	}
	return r
}

func (c *refClient) handle(msg multicast.Message) {
	c.stats.MessagesSeen++
	if c.lastSeq != 0 && msg.Seq > c.lastSeq+1 {
		c.stats.GapsDetected += int(msg.Seq - c.lastSeq - 1)
	}
	if msg.Seq > c.lastSeq {
		c.lastSeq = msg.Seq
	}
	entry, addressed := msg.EntryFor(c.id)
	payload := msg.PayloadBytes()
	if !addressed {
		c.stats.FilteredBytes += payload
		return
	}
	c.stats.MessagesAddressed++
	for _, removed := range msg.Removed {
		for _, qid := range entry.QueryIDs {
			if m := c.answers[qid]; m != nil {
				delete(m, removed)
			}
		}
		if c.caching {
			delete(c.cache, removed)
		}
	}
	relevant := 0
	touched := map[query.ID]bool{}
	for _, t := range msg.Tuples {
		used := false
		for _, qid := range entry.QueryIDs {
			q, ok := c.queries[qid]
			if !ok || !q.Matches(t) {
				continue
			}
			used = true
			if c.caching && c.cache[t.ID] {
				c.stats.CacheHits++
			}
			stored := t
			if q.Project != nil {
				stored.Payload = q.Project(t.Payload)
			}
			c.answers[qid][t.ID] = stored
			qs := c.perQuery[qid]
			qs.BytesReceived += t.Size()
			c.perQuery[qid] = qs
			touched[qid] = true
		}
		if used {
			relevant += t.Size()
			if c.caching {
				c.cache[t.ID] = true
			}
		}
	}
	for qid := range touched {
		qs := c.perQuery[qid]
		qs.Messages++
		qs.Tuples = len(c.answers[qid])
		c.perQuery[qid] = qs
	}
	c.stats.RelevantBytes += relevant
	c.stats.IrrelevantBytes += payload - relevant
}

func (c *refClient) answer(id query.ID) []relation.Tuple {
	m := c.answers[id]
	out := make([]relation.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (c *refClient) queryStatsFor(id query.ID) QueryStats {
	qs := c.perQuery[id]
	if m := c.answers[id]; m != nil {
		qs.Tuples = len(m)
	}
	return qs
}

// randomMessages builds a deterministic stream of messages exercising
// every Handle path: addressed and filtered, overlapping queries, unknown
// header ids, removals, gaps, and duplicate tuples for the cache.
func randomMessages(seed int64, n int) []multicast.Message {
	rng := rand.New(rand.NewSource(seed))
	var msgs []multicast.Message
	seq := uint64(0)
	for i := 0; i < n; i++ {
		seq++
		if rng.Intn(8) == 0 {
			seq += uint64(rng.Intn(3)) // inject gaps
		}
		nt := rng.Intn(40)
		tuples := make([]relation.Tuple, nt)
		for j := range tuples {
			tuples[j] = relation.Tuple{
				// Reuse ids across messages so caching and removals hit.
				ID:      uint64(1 + rng.Intn(200)),
				Pos:     geom.Pt(rng.Float64()*100, rng.Float64()*100),
				Payload: []byte("payload"),
			}
		}
		hdr := []multicast.HeaderEntry{}
		if rng.Intn(4) != 0 { // mostly addressed
			ids := []query.ID{}
			for q := 1; q <= 5; q++ { // id 5 is never subscribed
				if rng.Intn(2) == 0 {
					ids = append(ids, query.ID(q))
				}
			}
			hdr = append(hdr, multicast.HeaderEntry{ClientID: 7, QueryIDs: ids})
		}
		hdr = append(hdr, multicast.HeaderEntry{ClientID: 99, QueryIDs: []query.ID{1}})
		var removed []uint64
		for j := 0; j < rng.Intn(4); j++ {
			removed = append(removed, uint64(1+rng.Intn(200)))
		}
		msgs = append(msgs, multicast.Message{
			Channel: 0, Seq: seq, Tuples: tuples, Header: hdr,
			Delta: i%2 == 1, Removed: removed,
		})
	}
	return msgs
}

// TestHandleMatchesReference pins the slice-based extractor byte-identical
// to the map-based oracle: same Stats, same per-query stats, same
// accumulated answers, with and without the object cache, including
// projections and attribute filters.
func TestHandleMatchesReference(t *testing.T) {
	for _, caching := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", caching), func(t *testing.T) {
			project := func(p []byte) []byte { return p[:3] }
			filter := func(tu relation.Tuple) bool { return tu.Pos.X < 80 }
			qs := []query.Query{
				query.Range(1, geom.R(0, 0, 60, 60)),
				query.Range(2, geom.R(30, 30, 90, 90)), // overlaps q1
				{ID: 3, Region: geom.R(0, 0, 100, 100), Filter: filter},
				{ID: 4, Region: geom.R(50, 0, 100, 50), Project: project},
			}
			c := New(7, qs...)
			ref := newRef(7, qs...)
			if caching {
				c.EnableCache()
				ref.caching = true
				ref.cache = make(map[uint64]bool)
			}
			for i, msg := range randomMessages(31, 400) {
				c.Handle(msg)
				ref.handle(msg)
				if c.Stats() != ref.stats {
					t.Fatalf("message %d: stats diverged:\n got %+v\nwant %+v", i, c.Stats(), ref.stats)
				}
			}
			for _, q := range qs {
				if got, want := c.QueryStatsFor(q.ID), ref.queryStatsFor(q.ID); got != want {
					t.Fatalf("query %d stats: got %+v, want %+v", q.ID, got, want)
				}
				if got, want := c.Answer(q.ID), ref.answer(q.ID); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d answers diverged (%d vs %d tuples)", q.ID, len(got), len(want))
				}
			}
		})
	}
}

// TestHandleSteadyStateAllocs pins the extractor's allocation behavior:
// handling an addressed message with warm answer maps allocates only for
// genuinely new answer-map entries, and a filtered message allocates
// nothing.
func TestHandleSteadyStateAllocs(t *testing.T) {
	qs := []query.Query{
		query.Range(1, geom.R(0, 0, 100, 100)),
		query.Range(2, geom.R(0, 0, 100, 100)),
	}
	c := New(7, qs...)
	msgs := randomMessages(5, 4)
	for _, m := range msgs {
		c.Handle(m) // warm: resolve scratch + answer maps populated
	}
	filtered := multicast.Message{Seq: 10000, Tuples: msgs[0].Tuples,
		Header: []multicast.HeaderEntry{{ClientID: 99, QueryIDs: []query.ID{1}}}}
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(filtered) }); allocs != 0 {
		t.Fatalf("filtered message: %v allocs/op, want 0", allocs)
	}
	addressed := multicast.Message{Seq: 20000, Tuples: msgs[0].Tuples,
		Header: []multicast.HeaderEntry{{ClientID: 7, QueryIDs: []query.ID{1, 2}}}}
	c.Handle(addressed) // populate the answer maps for these tuples
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(addressed) }); allocs != 0 {
		t.Fatalf("addressed message with warm maps: %v allocs/op, want 0", allocs)
	}

	// The same pins must hold with extractor metrics enabled: the
	// counter handles are one branch plus an atomic add, never heap.
	cat := metrics.NewCatalog(1)
	c.SetMetrics(cat.ClientKeptTuples, cat.ClientFilteredMessages)
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(filtered) }); allocs != 0 {
		t.Fatalf("filtered message with metrics: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(addressed) }); allocs != 0 {
		t.Fatalf("addressed message with metrics: %v allocs/op, want 0", allocs)
	}
	if cat.ClientFilteredMessages.Load() == 0 || cat.ClientKeptTuples.Load() == 0 {
		t.Fatal("metrics counters did not advance during the pinned runs")
	}

	// And on timestamped messages, whose staleness bookkeeping reads the
	// clock: the read stays stack-resident.
	stamped := addressed
	stamped.PublishedUnixNano = time.Now().UnixNano()
	c.Handle(stamped)
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(stamped) }); allocs != 0 {
		t.Fatalf("timestamped message: %v allocs/op, want 0", allocs)
	}
	if c.Stats().LastHandledUnixNano == 0 {
		t.Fatal("staleness stamp did not advance during the pinned runs")
	}
}

func benchMessage(nTuples int, addressed, withCache bool) (multicast.Message, []query.Query) {
	rng := rand.New(rand.NewSource(5))
	var qs []query.Query
	for i := 0; i < 4; i++ {
		x, y := rng.Float64()*800, rng.Float64()*800
		qs = append(qs, query.Range(query.ID(i+1), geom.R(x, y, x+200, y+200)))
	}
	tuples := make([]relation.Tuple, nTuples)
	for i := range tuples {
		tuples[i] = relation.Tuple{ID: uint64(i + 1), Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000), Payload: []byte("payload")}
	}
	hdr := []multicast.HeaderEntry{{ClientID: 7, QueryIDs: []query.ID{1, 2, 3, 4}}}
	if !addressed {
		hdr[0].ClientID = 99
	}
	_ = withCache
	return multicast.Message{Channel: 0, Seq: 1, Tuples: tuples, Header: hdr}, qs
}

// BenchmarkClientHandle measures the extractor on addressed and filtered
// messages, with and without the object cache.
func BenchmarkClientHandle(b *testing.B) {
	for _, mode := range []string{"addressed", "filtered"} {
		for _, cache := range []string{"nocache", "cache"} {
			b.Run(fmt.Sprintf("%s/%s/tuples=500", mode, cache), func(b *testing.B) {
				msg, qs := benchMessage(500, mode == "addressed", cache == "cache")
				c := New(7, qs...)
				if cache == "cache" {
					c.EnableCache()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					msg.Seq = uint64(i + 1)
					c.Handle(msg)
				}
			})
		}
	}
}
