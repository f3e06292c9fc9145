package multicast

import (
	"sync"
	"testing"
	"time"

	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
)

func testMessage(ch int, payloads ...int) Message {
	msg := Message{Channel: ch, Header: []HeaderEntry{{ClientID: 1, QueryIDs: []query.ID{1}}}}
	for i, n := range payloads {
		msg.Tuples = append(msg.Tuples, relation.Tuple{
			ID:      uint64(i + 1),
			Pos:     geom.Pt(0, 0),
			Payload: make([]byte, n),
		})
	}
	return msg
}

// take returns what the subscription has queued, without waiting for
// more.
func take(sub *Subscription) []Message {
	if sub.q.Depth() == 0 {
		return nil
	}
	batch, _ := sub.NextBatch()
	return append([]Message(nil), batch...)
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0); err == nil {
		t.Fatal("zero channels should be rejected")
	}
	n, err := NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	if n.Channels() != 3 {
		t.Fatalf("Channels = %d, want 3", n.Channels())
	}
}

func TestPublishDeliversToSubscribers(t *testing.T) {
	n, _ := NewNetwork(2)
	defer n.Close()
	sub, err := n.Subscribe(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(testMessage(0, 10)); err != nil {
		t.Fatal(err)
	}
	got := take(sub)
	if len(got) != 1 {
		t.Fatalf("received %d messages, want 1", len(got))
	}
	msg := got[0]
	if msg.Seq != 1 {
		t.Fatalf("Seq = %d, want 1", msg.Seq)
	}
	if msg.PayloadBytes() != 24+10 {
		t.Fatalf("PayloadBytes = %d, want 34", msg.PayloadBytes())
	}
}

func TestChannelIsolation(t *testing.T) {
	n, _ := NewNetwork(2)
	defer n.Close()
	sub0, _ := n.Subscribe(0, 4)
	sub1, _ := n.Subscribe(1, 4)
	n.Publish(testMessage(0, 1))
	if got := take(sub0); len(got) != 1 {
		t.Fatalf("channel 0 received %d messages, want 1", len(got))
	}
	if got := take(sub1); len(got) != 0 {
		t.Fatalf("channel 1 received foreign messages %v", got)
	}
}

func TestSeqPerChannel(t *testing.T) {
	n, _ := NewNetwork(2)
	defer n.Close()
	s0, _ := n.Subscribe(0, 4)
	s1, _ := n.Subscribe(1, 4)
	n.Publish(testMessage(0, 1))
	n.Publish(testMessage(0, 1))
	n.Publish(testMessage(1, 1))
	if m := take(s0); len(m) != 2 || m[0].Seq != 1 || m[1].Seq != 2 {
		t.Fatalf("ch0 received %v, want seqs 1, 2", m)
	}
	if m := take(s1); len(m) != 1 || m[0].Seq != 1 {
		t.Fatalf("ch1 received %v, want seq 1 (sequences are per channel)", m)
	}
}

func TestPublishValidatesChannel(t *testing.T) {
	n, _ := NewNetwork(1)
	defer n.Close()
	if err := n.Publish(testMessage(5, 1)); err == nil {
		t.Fatal("out-of-range channel should be rejected")
	}
	if _, err := n.Subscribe(-1, 0); err == nil {
		t.Fatal("negative channel subscribe should be rejected")
	}
}

func TestStatsAccounting(t *testing.T) {
	n, _ := NewNetwork(1)
	defer n.Close()
	a, _ := n.Subscribe(0, 4)
	b, _ := n.Subscribe(0, 4)
	msg := testMessage(0, 6) // payload 24+6 = 30
	n.Publish(msg)
	if a.q.Depth() != 1 || b.q.Depth() != 1 {
		t.Fatalf("queued %d and %d copies, want 1 each", a.q.Depth(), b.q.Depth())
	}
	st := n.Stats()
	if st.MessagesPublished != 1 {
		t.Fatalf("MessagesPublished = %d", st.MessagesPublished)
	}
	if st.PayloadBytesSent != 30 {
		t.Fatalf("PayloadBytesSent = %d, want 30", st.PayloadBytesSent)
	}
	if st.Deliveries != 2 {
		t.Fatalf("Deliveries = %d, want 2", st.Deliveries)
	}
	if st.PayloadBytesDelivered != 60 {
		t.Fatalf("PayloadBytesDelivered = %d, want 60", st.PayloadBytesDelivered)
	}
	if st.HeaderBytesSent != 16 {
		t.Fatalf("HeaderBytesSent = %d, want 16", st.HeaderBytesSent)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	n, _ := NewNetwork(1)
	defer n.Close()
	sub, _ := n.Subscribe(0, 4)
	sub.Cancel()
	if got, ok := sub.NextBatch(); ok || len(got) != 0 {
		t.Fatal("cancelled subscription should be finished and empty")
	}
	// Publishing afterwards must not block or deliver.
	if err := n.Publish(testMessage(0, 1)); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Deliveries != 0 {
		t.Fatalf("Deliveries = %d after cancel, want 0", st.Deliveries)
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	n, _ := NewNetwork(1)
	sub, _ := n.Subscribe(0, 4)
	n.Close()
	if _, ok := sub.NextBatch(); ok {
		t.Fatal("close should close subscription queues")
	}
	if err := n.Publish(testMessage(0, 1)); err == nil {
		t.Fatal("publish after close should fail")
	}
	if _, err := n.Subscribe(0, 0); err == nil {
		t.Fatal("subscribe after close should fail")
	}
	n.Close() // idempotent
}

func TestLossInjectionDropsAndCounts(t *testing.T) {
	n, _ := NewNetwork(1, WithLoss(1.0, 1)) // drop everything
	defer n.Close()
	sub, _ := n.Subscribe(0, 4)
	n.Publish(testMessage(0, 1))
	n.Publish(testMessage(0, 1))
	if got := take(sub); len(got) != 0 {
		t.Fatalf("lossy network delivered %v", got)
	}
	st := n.Stats()
	if st.Dropped != 2 || st.Deliveries != 0 {
		t.Fatalf("Dropped = %d, Deliveries = %d; want 2, 0", st.Dropped, st.Deliveries)
	}
	// Sequence numbers still advanced, so a later lossless message
	// exposes the gap to clients.
}

func TestConcurrentPublishAndConsume(t *testing.T) {
	n, _ := NewNetwork(4)
	defer n.Close()
	const perChannel = 50
	var wg sync.WaitGroup
	received := make([]int, 4)
	for ch := 0; ch < 4; ch++ {
		sub, err := n.Subscribe(ch, 8)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ch int, sub *Subscription) {
			defer wg.Done()
			for received[ch] < perChannel {
				batch, ok := sub.NextBatch()
				received[ch] += len(batch)
				if !ok {
					return
				}
			}
		}(ch, sub)
	}
	var pub sync.WaitGroup
	for ch := 0; ch < 4; ch++ {
		pub.Add(1)
		go func(ch int) {
			defer pub.Done()
			for i := 0; i < perChannel; i++ {
				if err := n.Publish(testMessage(ch, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(ch)
	}
	pub.Wait()
	wg.Wait()
	for ch, got := range received {
		if got != perChannel {
			t.Fatalf("channel %d delivered %d messages, want %d", ch, got, perChannel)
		}
	}
	if st := n.Stats(); st.MessagesPublished != 4*perChannel {
		t.Fatalf("MessagesPublished = %d, want %d", st.MessagesPublished, 4*perChannel)
	}
}

func TestEntryFor(t *testing.T) {
	msg := Message{Header: []HeaderEntry{
		{ClientID: 3, QueryIDs: []query.ID{7}},
		{ClientID: 5, QueryIDs: []query.ID{8, 9}},
	}}
	if e, ok := msg.EntryFor(5); !ok || len(e.QueryIDs) != 2 {
		t.Fatalf("EntryFor(5) = %v, %t", e, ok)
	}
	if _, ok := msg.EntryFor(4); ok {
		t.Fatal("EntryFor(4) should miss")
	}
}

func TestPartialLossRateStatistics(t *testing.T) {
	n, _ := NewNetwork(1, WithLoss(0.3, 5))
	defer n.Close()
	sub, _ := n.Subscribe(0, 4096)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := n.Publish(testMessage(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Dropped+st.Deliveries != total {
		t.Fatalf("dropped %d + delivered %d != %d", st.Dropped, st.Deliveries, total)
	}
	rate := float64(st.Dropped) / total
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed loss rate %.3f far from configured 0.3", rate)
	}
	sub.Cancel()
}

func TestSubscribeDuringTraffic(t *testing.T) {
	n, _ := NewNetwork(1)
	defer n.Close()
	early, _ := n.Subscribe(0, 16)
	n.Publish(testMessage(0, 1))
	late, _ := n.Subscribe(0, 16)
	n.Publish(testMessage(0, 1))
	if got := early.q.Depth(); got != 2 {
		t.Fatalf("early subscriber buffered %d messages, want 2", got)
	}
	if got := late.q.Depth(); got != 1 {
		t.Fatalf("late subscriber buffered %d messages, want 1 (no replay)", got)
	}
	// The late subscriber's first message exposes the missed sequence.
	if msg := take(late)[0]; msg.Seq != 2 {
		t.Fatalf("late subscriber sees Seq %d, want 2", msg.Seq)
	}
}

// TestNegativeBufferClamped: a buffer below 1 holds one message, so a
// second Block publish waits for the consumer.
func TestNegativeBufferClamped(t *testing.T) {
	n, _ := NewNetwork(1)
	defer n.Close()
	sub, err := n.Subscribe(0, -5)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(testMessage(0, 1)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error)
	go func() { blocked <- n.Publish(testMessage(0, 1)) }()
	select {
	case <-blocked:
		t.Fatal("second publish into a one-message buffer did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	if got := take(sub); len(got) != 1 {
		t.Fatalf("queued %d messages, want 1", len(got))
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}
