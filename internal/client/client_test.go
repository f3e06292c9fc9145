package client

import (
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

func tuple(id uint64, x, y float64, payload int) relation.Tuple {
	return relation.Tuple{ID: id, Pos: geom.Pt(x, y), Payload: make([]byte, payload)}
}

func TestHandleExtractsOwnAnswer(t *testing.T) {
	q := query.Range(1, geom.R(0, 0, 10, 10))
	c := New(7, q)
	msg := multicast.Message{
		Channel: 0,
		Seq:     1,
		Tuples: []relation.Tuple{
			tuple(1, 5, 5, 0),   // inside q
			tuple(2, 50, 50, 0), // irrelevant
		},
		Header: []multicast.HeaderEntry{{ClientID: 7, QueryIDs: []query.ID{1}}},
	}
	c.Handle(msg)
	ans := c.Answer(1)
	if len(ans) != 1 || ans[0].ID != 1 {
		t.Fatalf("Answer = %v, want tuple 1", ans)
	}
	st := c.Stats()
	if st.MessagesAddressed != 1 || st.MessagesSeen != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RelevantBytes != 24 || st.IrrelevantBytes != 24 {
		t.Fatalf("byte accounting = %+v, want 24 relevant and 24 irrelevant", st)
	}
}

func TestHandleFiltersForeignMessages(t *testing.T) {
	c := New(7, query.Range(1, geom.R(0, 0, 10, 10)))
	msg := multicast.Message{
		Seq:    1,
		Tuples: []relation.Tuple{tuple(1, 5, 5, 10)},
		Header: []multicast.HeaderEntry{{ClientID: 99, QueryIDs: []query.ID{1}}},
	}
	c.Handle(msg)
	if len(c.Answer(1)) != 0 {
		t.Fatal("foreign message should not contribute answers")
	}
	st := c.Stats()
	if st.FilteredBytes != 34 {
		t.Fatalf("FilteredBytes = %d, want 34", st.FilteredBytes)
	}
	if st.MessagesAddressed != 0 {
		t.Fatalf("MessagesAddressed = %d, want 0", st.MessagesAddressed)
	}
}

func TestHandleMultipleQueriesOneMessage(t *testing.T) {
	qa := query.Range(1, geom.R(0, 0, 10, 10))
	qb := query.Range(2, geom.R(5, 5, 20, 20))
	c := New(7, qa, qb)
	msg := multicast.Message{
		Seq: 1,
		Tuples: []relation.Tuple{
			tuple(1, 2, 2, 0),   // only qa
			tuple(2, 7, 7, 0),   // both
			tuple(3, 15, 15, 0), // only qb
		},
		Header: []multicast.HeaderEntry{{ClientID: 7, QueryIDs: []query.ID{1, 2}}},
	}
	c.Handle(msg)
	if a := c.Answer(1); len(a) != 2 {
		t.Fatalf("Answer(1) = %v, want 2 tuples", a)
	}
	if b := c.Answer(2); len(b) != 2 {
		t.Fatalf("Answer(2) = %v, want 2 tuples", b)
	}
	if st := c.Stats(); st.IrrelevantBytes != 0 {
		t.Fatalf("IrrelevantBytes = %d, want 0 (every tuple served a query)", st.IrrelevantBytes)
	}
}

func TestGapDetection(t *testing.T) {
	c := New(1, query.Range(1, geom.R(0, 0, 1, 1)))
	c.Handle(multicast.Message{Seq: 1})
	c.Handle(multicast.Message{Seq: 4}) // lost 2 and 3
	c.Handle(multicast.Message{Seq: 5})
	if st := c.Stats(); st.GapsDetected != 2 {
		t.Fatalf("GapsDetected = %d, want 2", st.GapsDetected)
	}
}

// TestGapDetectionIsPerChannel: a replan moves the client between
// channels whose counters are unrelated, so neither a channel that is far
// ahead nor one that is far behind may be measured against the mark of
// the channel just left — and a real hole on the current channel still
// counts after either move.
func TestGapDetectionIsPerChannel(t *testing.T) {
	c := New(1, query.Range(1, geom.R(0, 0, 1, 1)))
	step := func(channel int, seq uint64, wantGaps int) {
		t.Helper()
		c.Handle(multicast.Message{Channel: channel, Seq: seq})
		if got := c.Stats().GapsDetected; got != wantGaps {
			t.Fatalf("after channel %d seq %d: GapsDetected = %d, want %d", channel, seq, got, wantGaps)
		}
	}
	step(0, 100, 0)
	step(0, 101, 0)
	step(1, 5000, 0) // A→B, B far ahead
	step(1, 5001, 0)
	step(0, 140, 0) // B→A, A far behind B, and ahead of where A was left
	step(0, 141, 0)
	step(0, 144, 2) // a real hole: 142 and 143
	step(1, 3, 2)   // A→B again, now B far behind
	step(1, 4, 2)
	step(1, 6, 3) // and a hole there too
}

func TestCacheCountsDuplicates(t *testing.T) {
	q := query.Range(1, geom.R(0, 0, 10, 10))
	c := New(1, q)
	c.EnableCache()
	msg := multicast.Message{
		Seq:    1,
		Tuples: []relation.Tuple{tuple(1, 5, 5, 0)},
		Header: []multicast.HeaderEntry{{ClientID: 1, QueryIDs: []query.ID{1}}},
	}
	c.Handle(msg)
	msg.Seq = 2
	c.Handle(msg)
	if st := c.Stats(); st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	if len(c.Answer(1)) != 1 {
		t.Fatal("duplicate tuple should be stored once")
	}
}

func TestAddRemoveQuery(t *testing.T) {
	c := New(1)
	q := query.Range(5, geom.R(0, 0, 10, 10))
	c.AddQuery(q)
	if got := c.Queries(); len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("Queries = %v", got)
	}
	c.Handle(multicast.Message{
		Seq:    1,
		Tuples: []relation.Tuple{tuple(1, 5, 5, 0)},
		Header: []multicast.HeaderEntry{{ClientID: 1, QueryIDs: []query.ID{5}}},
	})
	if len(c.Answer(5)) != 1 {
		t.Fatal("answer missing after AddQuery")
	}
	c.RemoveQuery(5)
	if len(c.Queries()) != 0 || len(c.Answer(5)) != 0 {
		t.Fatal("RemoveQuery should drop query and answers")
	}
}

func TestConsumeDrainsSubscription(t *testing.T) {
	net, err := multicast.NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sub, err := net.Subscribe(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := New(3, query.Range(1, geom.R(0, 0, 10, 10)))
	done := make(chan struct{})
	go func() {
		c.Consume(sub)
		close(done)
	}()
	for i := 0; i < 3; i++ {
		err := net.Publish(multicast.Message{
			Channel: 0,
			Tuples:  []relation.Tuple{tuple(uint64(i+1), 1, 1, 0)},
			Header:  []multicast.HeaderEntry{{ClientID: 3, QueryIDs: []query.ID{1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	<-done
	if got := len(c.Answer(1)); got != 3 {
		t.Fatalf("Answer has %d tuples, want 3", got)
	}
	if st := c.Stats(); st.MessagesSeen != 3 {
		t.Fatalf("MessagesSeen = %d, want 3", st.MessagesSeen)
	}
}

func TestPerQueryStats(t *testing.T) {
	qa := query.Range(1, geom.R(0, 0, 10, 10))
	qb := query.Range(2, geom.R(50, 50, 60, 60))
	c := New(1, qa, qb)
	msg := multicast.Message{
		Seq: 1,
		Tuples: []relation.Tuple{
			tuple(1, 5, 5, 4),   // qa only
			tuple(2, 55, 55, 8), // qb only
			tuple(3, 90, 90, 2), // neither (irrelevant)
		},
		Header: []multicast.HeaderEntry{{ClientID: 1, QueryIDs: []query.ID{1, 2}}},
	}
	c.Handle(msg)
	c.Handle(multicast.Message{ // second message hits only qa
		Seq:    2,
		Tuples: []relation.Tuple{tuple(4, 1, 1, 0)},
		Header: []multicast.HeaderEntry{{ClientID: 1, QueryIDs: []query.ID{1}}},
	})
	a := c.QueryStatsFor(1)
	if a.Tuples != 2 || a.Messages != 2 || a.BytesReceived != (24+4)+(24+0) {
		t.Fatalf("qa stats = %+v", a)
	}
	b := c.QueryStatsFor(2)
	if b.Tuples != 1 || b.Messages != 1 || b.BytesReceived != 24+8 {
		t.Fatalf("qb stats = %+v", b)
	}
	c.RemoveQuery(1)
	if got := c.QueryStatsFor(1); got.Tuples != 0 || got.BytesReceived != 0 {
		t.Fatalf("removed query stats should reset: %+v", got)
	}
}
