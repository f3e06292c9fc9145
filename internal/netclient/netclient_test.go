package netclient

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/wire"
)

// fakeSession scripts server-pushed events and records the calls the
// runtime makes against it.
type fakeSession struct {
	mu         sync.Mutex
	subscribed []query.ID
	refreshes  int
	events     []Event
	closed     chan struct{}
	closeOnce  sync.Once
}

func (f *fakeSession) Subscribe(q query.Query) error {
	f.mu.Lock()
	f.subscribed = append(f.subscribed, q.ID)
	f.mu.Unlock()
	return nil
}
func (f *fakeSession) Ready() error { return nil }
func (f *fakeSession) Refresh() error {
	f.mu.Lock()
	f.refreshes++
	f.mu.Unlock()
	return nil
}
func (f *fakeSession) Next() (Event, error) {
	f.mu.Lock()
	if len(f.events) == 0 {
		f.mu.Unlock()
		<-f.closed
		return Event{}, errors.New("fake session closed")
	}
	ev := f.events[0]
	f.events = f.events[1:]
	f.mu.Unlock()
	return ev, nil
}
func (f *fakeSession) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return nil
}

// answerEvent is an answer frame as Conn.Next returns it: stamped
// with its receive time.
func answerEvent(channel int, seq uint64) Event {
	return Event{Answer: &multicast.Message{Channel: channel, Seq: seq}, ReceivedUnixNano: time.Now().UnixNano()}
}

// TestGapTriggersRefresh: a sequence gap in the answer stream makes the
// client request a full refresh.
func TestGapTriggersRefresh(t *testing.T) {
	sess := &fakeSession{
		closed: make(chan struct{}),
		events: []Event{
			{Assigned: &wire.Assigned{Channel: 0}},
			answerEvent(0, 1),
			answerEvent(0, 2),
			answerEvent(0, 5), // seqs 3 and 4 lost
		},
	}
	seen := make(chan Event, 16)
	c, err := New(Config{
		ClientID:    1,
		Queries:     []query.Query{query.Range(1, geom.R(0, 0, 10, 10))},
		MaxAttempts: 1,
		Dial: func(string, int) (Session, error) {
			return sess, nil
		},
		OnEvent: func(ev Event) { seen <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	for i := 0; i < 4; i++ {
		select {
		case <-seen:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for scripted events")
		}
	}
	cancel()
	<-runDone

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1 (gap between seq 2 and 5)", sess.refreshes)
	}
	if len(sess.subscribed) != 1 || sess.subscribed[0] != 1 {
		t.Fatalf("subscribed = %v, want [1]", sess.subscribed)
	}
	st := c.Stats()
	if st.GapRefreshes != 1 || st.Channel != 0 || st.Connects != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChannelReturnIsNotAGap: replans move a session from channel 0 to 1
// and back while channel 0's sequence advances without it. Coming back is
// not a missed message and must not request a refresh; a gap on the
// channel being listened to still does.
func TestChannelReturnIsNotAGap(t *testing.T) {
	sess := &fakeSession{
		closed: make(chan struct{}),
		events: []Event{
			{Assigned: &wire.Assigned{Channel: 0}},
			answerEvent(0, 1),
			answerEvent(0, 2),
			{Assigned: &wire.Assigned{Channel: 1}},
			answerEvent(1, 7),
			answerEvent(1, 8),
			{Assigned: &wire.Assigned{Channel: 0}},
			answerEvent(0, 9), // channel 0 published 3..8 while we were away
			answerEvent(0, 10),
			{Assigned: &wire.Assigned{Channel: 0}}, // replan that keeps the channel
			answerEvent(0, 11),
			answerEvent(0, 14), // 12 and 13 lost: a real gap
		},
	}
	// OnEvent runs on the client's goroutine right after the event was
	// handled, so each snapshot is the state that event left behind.
	var c *Client
	after := make(chan Stats, len(sess.events))
	c, err := New(Config{
		ClientID:    1,
		Queries:     []query.Query{query.Range(1, geom.R(0, 0, 10, 10))},
		MaxAttempts: 1,
		Dial:        func(string, int) (Session, error) { return sess, nil },
		OnEvent:     func(Event) { after <- c.Stats() },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	var st Stats
	for i := 0; i < cap(after); i++ {
		select {
		case st = <-after:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for scripted events")
		}
		if i == 10 && (st.GapRefreshes != 0 || st.Channel != 0 || st.LastSeq != 11) {
			t.Fatalf("after moving 0→1→0: stats = %+v, want no gap refresh, channel 0, last seq 11", st)
		}
	}
	cancel()
	<-runDone
	if st.GapRefreshes != 1 {
		t.Fatalf("after a real gap on the current channel: GapRefreshes = %d, want 1", st.GapRefreshes)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.refreshes != 1 {
		t.Fatalf("session saw %d Refresh requests, want 1", sess.refreshes)
	}
}

// TestBackoffGrowsAndCaps: the reconnect delay (the one rule netclient
// sessions and the relay's upstream link share) doubles per consecutive
// failure, stays jittered within [d/2, d] — both bounds reached, never
// crossed — and caps at the maximum.
func TestBackoffGrowsAndCaps(t *testing.T) {
	const base, limit = 100 * time.Millisecond, 800 * time.Millisecond
	rng := rand.New(rand.NewSource(7))
	wantFull := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 800 * time.Millisecond, // capped
	}
	for i, full := range wantFull {
		lo, hi := full, time.Duration(0)
		for draw := 0; draw < 2000; draw++ {
			got := Backoff(base, limit, i+1, rng)
			if got < full/2 || got > full {
				t.Fatalf("Backoff(%d) = %s, want within [%s, %s]", i+1, got, full/2, full)
			}
			lo, hi = min(lo, got), max(hi, got)
		}
		// 2000 draws over a uniform half-width land within 2% of each end.
		if slack := full / 100; lo > full/2+slack || hi < full-slack {
			t.Fatalf("Backoff(%d) drew from [%s, %s], want the whole of [%s, %s]", i+1, lo, hi, full/2, full)
		}
	}
}

// TestDialGivesUpAfterMaxAttempts: a hard-down daemon exhausts the
// attempt budget instead of retrying forever.
func TestDialGivesUpAfterMaxAttempts(t *testing.T) {
	dials := 0
	c, err := New(Config{
		ClientID:    1,
		Queries:     []query.Query{query.Range(1, geom.R(0, 0, 10, 10))},
		MinBackoff:  time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxAttempts: 3,
		Dial: func(string, int) (Session, error) {
			dials++
			return nil, errors.New("connection refused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err == nil {
		t.Fatal("Run should surface the dial failure")
	}
	if dials != 3 {
		t.Fatalf("dials = %d, want 3", dials)
	}
	if st := c.Stats(); st.DialFailures != 3 {
		t.Fatalf("DialFailures = %d, want 3", st.DialFailures)
	}
}

// TestStaleness: the per-session receive bookkeeping (Frames, LastSeq,
// LastFrameUnixNano) tracks the newest frame, and the extractor's
// staleness stamps track the newest timestamped one.
func TestStaleness(t *testing.T) {
	stampedAt := time.Now().Add(-50 * time.Millisecond).UnixNano()
	stamped := answerEvent(0, 1)
	stamped.Answer.PublishedUnixNano = stampedAt
	unstamped := answerEvent(0, 2) // pre-timestamp daemon: must not restamp
	sess := &fakeSession{
		closed: make(chan struct{}),
		events: []Event{
			{Assigned: &wire.Assigned{Channel: 0}},
			stamped,
			unstamped,
		},
	}
	seen := make(chan Event, 16)
	c, err := New(Config{
		ClientID:    1,
		Queries:     []query.Query{query.Range(1, geom.R(0, 0, 10, 10))},
		MaxAttempts: 1,
		Dial:        func(string, int) (Session, error) { return sess, nil },
		OnEvent:     func(ev Event) { seen <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	for i := 0; i < 3; i++ {
		select {
		case <-seen:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for scripted events")
		}
	}
	cancel()
	<-runDone

	st := c.Stats()
	if st.Frames != 2 || st.LastSeq != 2 {
		t.Fatalf("stats = %+v, want Frames 2, LastSeq 2", st)
	}
	if age := time.Since(time.Unix(0, st.LastFrameUnixNano)); st.LastFrameUnixNano == 0 || age < 0 || age > time.Minute {
		t.Fatalf("LastFrameUnixNano %d, want a recent receive time", st.LastFrameUnixNano)
	}
	ext := c.Extractor().Stats()
	if ext.LastPublishedUnixNano != stampedAt || ext.LastHandledUnixNano == 0 {
		t.Fatalf("extractor stats = %+v, want LastPublishedUnixNano %d", ext, stampedAt)
	}
}

// ownedMsg is an answer of n 40-byte tuples inside (0,0)-(10,10) for one
// client's query 1.
func ownedMsg(clientID int, seq uint64, n int, fill byte) multicast.Message {
	m := multicast.Message{Channel: 0, Seq: seq, PublishedUnixNano: 1_754_650_000_000_000_000 + int64(seq),
		Header: []multicast.HeaderEntry{{ClientID: clientID, QueryIDs: []query.ID{1}}}}
	for i := 0; i < n; i++ {
		m.Tuples = append(m.Tuples, relation.Tuple{ID: seq*1000 + uint64(i), Pos: geom.Pt(5, 5),
			Payload: bytes.Repeat([]byte{fill}, 40)})
	}
	return m
}

// TestAnswerSurvivesLaterFrames drives the runtime over a real socket: the
// answer extracted from an addressed frame is still intact, read from
// another goroutine, after many times the connection's read buffer of
// other clients' frames went by (see Conn.Next for the rule).
func TestAnswerSurvivesLaterFrames(t *testing.T) {
	const me, other, fillers = 3, 4, 2000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	first, last := ownedMsg(me, 1, 3, 'P'), ownedMsg(me, fillers+2, 1, 'Z')
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		go io.Copy(io.Discard, conn) // Hello, Subscribe, Ready; ends with conn
		stream := wire.AppendMessageFrame(nil, first)
		for seq := uint64(2); seq < fillers+2; seq++ {
			stream = wire.AppendMessageFrame(stream, ownedMsg(other, seq, 1+int(seq%4), byte(seq)))
		}
		stream = wire.AppendMessageFrame(stream, last)
		conn.Write(stream) // an error shows as the client never seeing `last`
		<-done
	}()

	seen := make(chan struct{})
	c, err := New(Config{
		Addr:     ln.Addr().String(),
		ClientID: me,
		Queries:  []query.Query{query.Range(1, geom.R(0, 0, 10, 10))},
		OnEvent: func(ev Event) {
			if ev.Answer != nil && ev.Answer.Seq == last.Seq {
				close(seen)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- c.Run(ctx) }()
	select {
	case <-seen:
	case <-time.After(5 * time.Second):
		t.Fatal("the last frame never arrived")
	}
	cancel()
	<-ran
	want := append(append([]relation.Tuple(nil), first.Tuples...), last.Tuples...)
	if got := c.Extractor().Answer(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("answer changed under later frames:\n got %v\nwant %v", got, want)
	}
	if st := c.Stats(); st.Frames != fillers+2 || st.GapRefreshes != 0 {
		t.Fatalf("stats = %+v, want %d frames and no gaps", st, fillers+2)
	}
}

// TestReceivePathAllocs pins what a frame costs a listener from socket
// buffer to extractor: nothing for a frame addressed to someone else, one
// block (the owned payloads) for one addressed to it.
func TestReceivePathAllocs(t *testing.T) {
	const me = 3
	for _, tc := range []struct {
		name string
		to   int
		max  float64
	}{{"unaddressed", me + 1, 0}, {"addressed", me, 1}} {
		var stream []byte
		for seq := uint64(1); seq <= 64; seq++ {
			stream = wire.AppendMessageFrame(stream, ownedMsg(tc.to, seq, 2, byte(seq)))
		}
		conn := connOver(t, me, stream, true)
		c, err := New(Config{ClientID: me, Queries: []query.Query{query.Range(1, geom.R(0, 0, 10, 10))}})
		if err != nil {
			t.Fatal(err)
		}
		frame := func() {
			ev, err := conn.Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.handle(conn, ev); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 128; i++ {
			frame() // warm the connection's storage and the answer map
		}
		if allocs := testing.AllocsPerRun(640, frame); allocs > tc.max {
			t.Errorf("%s frame: %v allocs, want at most %v", tc.name, allocs, tc.max)
		}
		if st := c.Extractor().Stats(); st.MessagesSeen == 0 || (st.MessagesAddressed > 0) != (tc.to == me) || st.LastHandledUnixNano == 0 {
			t.Errorf("%s: frames did not reach the extractor: %+v", tc.name, st)
		}
	}
}

// TestLastFrameIsReceiveStamp: the session's staleness mark is the
// connection's receive stamp of the newest frame, not a clock read of
// its own.
func TestLastFrameIsReceiveStamp(t *testing.T) {
	const me = 3
	var stream []byte
	for seq := uint64(1); seq <= 64; seq++ {
		stream = wire.AppendMessageFrame(stream, ownedMsg(me+int(seq%2), seq, 2, byte(seq)))
	}
	conn := connOver(t, me, stream, true)
	c, err := New(Config{ClientID: me, Queries: []query.Query{query.Range(1, geom.R(0, 0, 10, 10))}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ev, err := conn.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.handle(conn, ev); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().LastFrameUnixNano; got == 0 || got != ev.ReceivedUnixNano {
			t.Fatalf("frame %d: LastFrameUnixNano %d, event stamped %d", i+1, got, ev.ReceivedUnixNano)
		}
	}
}

// BenchmarkReceive is a listener's whole cost per frame, from the
// connection's read buffer through the clock, the sequence bookkeeping
// and extraction: one Next plus handle per op over an endless in-memory
// stream, for the frame shapes of BenchmarkConnNext. An
// unaddressed frame allocates nothing (TestReceivePathAllocs).
func BenchmarkReceive(b *testing.B) {
	const me = 3
	for _, bc := range []struct {
		name          string
		to            int
		tuples, bytes int
		removed       int
	}{
		{"unaddressed", me + 1, 1, 100, 0},
		{"addressed", me, 1, 100, 0},
		{"merge-unaddressed", me + 1, 3, 16, 2},
		{"merge-addressed", me, 3, 16, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var stream []byte
			for seq := uint64(1); seq <= 64; seq++ {
				m := ownedMsg(bc.to, seq, bc.tuples, byte(seq))
				for i := range m.Tuples {
					m.Tuples[i].Payload = bytes.Repeat([]byte{byte(seq)}, bc.bytes)
				}
				for i := 0; i < bc.removed; i++ {
					m.Removed = append(m.Removed, seq*1000+uint64(i))
				}
				stream = wire.AppendMessageFrame(stream, m)
			}
			conn := connOver(b, me, stream, true)
			c, err := New(Config{ClientID: me, Queries: []query.Query{query.Range(1, geom.R(0, 0, 10, 10))}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(stream) / 64))
			for i := 0; i < b.N; i++ {
				ev, err := conn.Next()
				if err != nil {
					b.Fatal(err)
				}
				if err := c.handle(conn, ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
