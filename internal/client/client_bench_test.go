package client

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
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
	}
	relevant := 0
	touched := map[query.ID]bool{}
	for _, t := range msg.Tuples {
		used := false
		for _, qid := range entry.QueryIDs {
			q, ok := c.queries[qid]
			if !ok || !q.Region.Contains(t.Pos) {
				continue
			}
			used = true
			c.answers[qid][t.ID] = t
			qs := c.perQuery[qid]
			qs.BytesReceived += t.Size()
			c.perQuery[qid] = qs
			touched[qid] = true
		}
		if used {
			relevant += t.Size()
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
// header ids, removals, gaps, and tuples delivered more than once.
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
				// Reuse ids across messages so removals hit.
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

// hostileMessages builds a deterministic stream that drives every rule
// of the id-ordered views: tuples in rising, falling and shuffled id
// order, ids repeated within one message (the last copy must win, so
// every copy carries its own payload), removals of ids never seen,
// re-adds of removed ids, and removal bursts that push views past the
// compaction threshold.
func hostileMessages(seed int64, n int) []multicast.Message {
	rng := rand.New(rand.NewSource(seed))
	var msgs []multicast.Message
	var removed []uint64
	next := uint64(1)
	for i := 0; i < n; i++ {
		var tuples []relation.Tuple
		add := func(id uint64) {
			tuples = append(tuples, relation.Tuple{
				ID:      id,
				Pos:     geom.Pt(rng.Float64()*100, rng.Float64()*100),
				Payload: []byte{byte(i), byte(len(tuples))},
			})
		}
		var gone []uint64
		switch i % 6 {
		case 0: // rising past every id seen: the append path
			for k := rng.Intn(30); k > 0; k-- {
				add(next)
				next++
			}
		case 1: // falling, over old and new ids
			for k := rng.Intn(30); k > 0; k-- {
				add(next + 10 - uint64(rng.Intn(int(next)+10)))
			}
			slices.SortFunc(tuples, func(a, b relation.Tuple) int { return -cmp.Compare(a.ID, b.ID) })
		case 2: // shuffled, with repeats
			for k := rng.Intn(30); k > 0; k-- {
				add(1 + uint64(rng.Intn(int(next))))
				if rng.Intn(3) == 0 {
					add(tuples[rng.Intn(len(tuples))].ID)
				}
			}
		case 3: // a removal burst, plus ids never assigned
			for k := 0; k < int(next)*2/3; k++ {
				gone = append(gone, 1+uint64(rng.Intn(int(next))))
			}
			gone = append(gone, next+1000, 0)
			removed = append(removed, gone...)
		case 4: // re-adds of removed ids, in removal order
			for k := 0; k < len(removed) && k < 25; k++ {
				add(removed[rng.Intn(len(removed))])
			}
		case 5: // removals and re-adds of one id in the same message
			if next > 1 {
				id := 1 + uint64(rng.Intn(int(next-1)))
				gone = append(gone, id)
				add(id)
			}
		}
		ids := []query.ID{}
		for q := 1; q <= 5; q++ { // id 5 is never subscribed
			if rng.Intn(3) != 0 {
				ids = append(ids, query.ID(q))
			}
		}
		msgs = append(msgs, multicast.Message{
			Seq: uint64(i + 1), Tuples: tuples, Removed: gone,
			Header: []multicast.HeaderEntry{{ClientID: 7, QueryIDs: ids}},
		})
	}
	return msgs
}

// refQueries are the subscriptions of the reference legs: overlapping
// rectangles, one covering everything, and a fourth query that is a
// rectangle or, where hull is set, a hull (the extractor's non-rectangle
// path).
func refQueries(hull bool) []query.Query {
	qs := []query.Query{
		query.Range(1, geom.R(0, 0, 60, 60)),
		query.Range(2, geom.R(30, 30, 90, 90)), // overlaps q1
		query.Range(3, geom.R(0, 0, 100, 100)),
		query.Range(4, geom.R(50, 0, 100, 50)),
	}
	if hull {
		qs[3] = query.Query{ID: 4, Region: geom.ConvexHull([]geom.Point{geom.Pt(50, 0), geom.Pt(100, 10), geom.Pt(70, 60)})}
	}
	return qs
}

// checkAgainstRef handles msgs with client 7 subscribed to qs and with
// the oracle and fails at the first message after which Stats, a query's
// stats or a query's answer differ. It reports whether any view
// compacted.
func checkAgainstRef(t testing.TB, qs []query.Query, msgs []multicast.Message) (compacted bool) {
	t.Helper()
	c := New(7, qs...)
	ref := newRef(7, qs...)
	for i, msg := range msgs {
		before := make([]int, len(c.entries))
		for k := range c.entries {
			before[k] = len(c.entries[k].view.tuples)
		}
		c.Handle(msg)
		ref.handle(msg)
		for k := range c.entries {
			compacted = compacted || len(c.entries[k].view.tuples) < before[k]
		}
		if c.Stats() != ref.stats {
			t.Fatalf("message %d: stats diverged:\n got %+v\nwant %+v", i, c.Stats(), ref.stats)
		}
		for _, q := range qs {
			if got, want := c.QueryStatsFor(q.ID), ref.queryStatsFor(q.ID); got != want {
				t.Fatalf("message %d, query %d stats: got %+v, want %+v", i, q.ID, got, want)
			}
			if got, want := c.Answer(q.ID), ref.answer(q.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("message %d, query %d answers diverged (%d vs %d tuples)", i, q.ID, len(got), len(want))
			}
		}
	}
	return compacted
}

// TestHandleMatchesReference pins the view-based extractor byte-identical
// to the map-based oracle: same Stats, same per-query stats, same
// accumulated answers after every message. The client keeps no object
// cache, so the first leg is the uncached one, named as such; the second
// feeds the views every order and removal pattern they must survive.
func TestHandleMatchesReference(t *testing.T) {
	t.Run("cache=false", func(t *testing.T) {
		checkAgainstRef(t, refQueries(false), randomMessages(31, 400))
	})
	t.Run("hostile", func(t *testing.T) {
		if !checkAgainstRef(t, refQueries(true), hostileMessages(40, 300)) {
			t.Fatal("no view crossed the compaction threshold")
		}
	})
}

// fuzzMessages decodes arbitrary bytes into a message stream for
// FuzzHandle, a few bytes per field: ids from a small range so tuples
// collide, removals and repeats, any order, sequence gaps, and
// unaddressed messages.
func fuzzMessages(data []byte) []multicast.Message {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var msgs []multicast.Message
	seq := uint64(0)
	for len(data) > 0 {
		flags := next()
		seq += 1 + uint64(flags>>6)
		hdr := []multicast.HeaderEntry{{ClientID: 99, QueryIDs: []query.ID{1}}}
		if flags&0x20 == 0 {
			ids := []query.ID{}
			for q := 0; q < 5; q++ { // id 5 is never subscribed
				if flags&(1<<q) != 0 {
					ids = append(ids, query.ID(q+1))
				}
			}
			hdr = append(hdr, multicast.HeaderEntry{ClientID: 7, QueryIDs: ids})
		}
		msg := multicast.Message{Seq: seq, Header: hdr}
		for k := next() % 24; k > 0; k-- {
			id := uint64(next() % 48)
			pos := next()
			msg.Tuples = append(msg.Tuples, relation.Tuple{
				ID:      id,
				Pos:     geom.Pt(float64(pos&15)*6.5, float64(pos>>4)*6.5),
				Payload: []byte{byte(len(msgs)), byte(k)},
			})
		}
		for k := next() % 8; k > 0; k-- {
			msg.Removed = append(msg.Removed, uint64(next()%48))
		}
		msgs = append(msgs, msg)
	}
	return msgs
}

// FuzzHandle holds the extractor to the map-based oracle on arbitrary
// message streams: answers, per-query stats and client stats must match
// after every message.
func FuzzHandle(f *testing.F) {
	f.Add([]byte{0x0f, 3, 1, 0x11, 2, 0x22, 3, 0x33, 0})
	f.Add([]byte{0x03, 4, 9, 0x10, 7, 0x20, 5, 0x30, 9, 0x40, 2, 9, 5, 0x0f, 1, 9, 0x41, 0})
	f.Add([]byte{0x1f, 6, 40, 1, 30, 2, 20, 3, 10, 4, 5, 5, 1, 6, 7, 40, 30, 20, 10, 5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, refQueries(true), fuzzMessages(data))
	})
}

// TestHandleSteadyStateAllocs pins the extractor's allocation behavior:
// handling an addressed message whose tuples the views already hold
// allocates nothing (only growing a view or its scratch run allocates),
// and a filtered message allocates nothing.
func TestHandleSteadyStateAllocs(t *testing.T) {
	qs := []query.Query{
		query.Range(1, geom.R(0, 0, 100, 100)),
		query.Range(2, geom.R(0, 0, 100, 100)),
	}
	c := New(7, qs...)
	msgs := randomMessages(5, 4)
	for _, m := range msgs {
		c.Handle(m) // warm: resolve scratch, runs and views populated
	}
	filtered := multicast.Message{Seq: 10000, Tuples: msgs[0].Tuples,
		Header: []multicast.HeaderEntry{{ClientID: 99, QueryIDs: []query.ID{1}}}}
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(filtered) }); allocs != 0 {
		t.Fatalf("filtered message: %v allocs/op, want 0", allocs)
	}
	addressed := multicast.Message{Seq: 20000, Tuples: msgs[0].Tuples,
		Header: []multicast.HeaderEntry{{ClientID: 7, QueryIDs: []query.ID{1, 2}}}}
	c.Handle(addressed) // put these tuples in the views
	if allocs := testing.AllocsPerRun(100, func() { c.Handle(addressed) }); allocs != 0 {
		t.Fatalf("addressed message with warm views: %v allocs/op, want 0", allocs)
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

func benchMessage(nTuples int, addressed bool) (multicast.Message, []query.Query) {
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
	return multicast.Message{Channel: 0, Seq: 1, Tuples: tuples, Header: hdr}, qs
}

// BenchmarkClientHandle measures the extractor on one 500-tuple message:
// addressed to views that already hold its tuples, filtered, and into
// empty views (fresh, the shape of a cycle that starts from a new
// population) with the tuples in publish's rising id order and, as a
// hostile frame would send them, falling.
func BenchmarkClientHandle(b *testing.B) {
	for _, mode := range []string{"addressed", "filtered", "fresh", "descending"} {
		b.Run(mode+"/tuples=500", func(b *testing.B) {
			msg, qs := benchMessage(500, mode != "filtered")
			if mode == "descending" {
				slices.Reverse(msg.Tuples)
			}
			c := New(7, qs...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "fresh" || mode == "descending" {
					c = New(7, qs...)
				}
				msg.Seq = uint64(i + 1)
				c.Handle(msg)
			}
		})
	}
}
