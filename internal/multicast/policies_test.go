package multicast

import (
	"testing"

	"qsub/internal/relation"
)

func testMsg(channel int) Message {
	return Message{Channel: channel, Tuples: []relation.Tuple{{Payload: []byte("x")}}}
}

// TestEvictPolicy: a subscriber that stops draining is evicted at the
// publish that finds its queue full — the publish completes immediately
// instead of blocking, the eviction is counted, the message that found
// it full is not delivered, and the queue ends after the backlog that fit.
func TestEvictPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stalled, err := n.SubscribeBatch(0, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := n.SubscribeBatch(0, 4, Evict)
	if err != nil {
		t.Fatal(err)
	}
	// First publish fills the stalled subscriber's 1-slot queue; the
	// second finds it full and must evict rather than block.
	for i := 0; i < 2; i++ {
		if err := n.Publish(testMsg(0)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.SlowEvictions != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", st.SlowEvictions)
	}
	if st.Deliveries != 3 {
		t.Fatalf("Deliveries = %d, want 3 (2 healthy + the 1 that fit before eviction)", st.Deliveries)
	}
	if !stalled.Evicted() || healthy.Evicted() {
		t.Fatalf("evicted: stalled %t, healthy %t; want true, false", stalled.Evicted(), healthy.Evicted())
	}
	// The backlog that fit the queue is still delivered, then it ends.
	if got := drainAll(stalled); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("evicted subscription drained %v, want only seq 1", got)
	}
	// A later publish neither reaches the evicted queue nor evicts again.
	if err := n.Publish(testMsg(0)); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.SlowEvictions != 1 || st.Deliveries != 4 {
		t.Fatalf("after eviction: SlowEvictions %d, Deliveries %d; want 1, 4", st.SlowEvictions, st.Deliveries)
	}
	// The healthy subscriber saw all three messages.
	if got := take(healthy); len(got) != 3 {
		t.Fatalf("healthy subscriber has %d queued messages, want 3", len(got))
	}
}

// TestDropNewestPolicy: a full queue drops the incoming copy (counted,
// surfacing to clients as a sequence gap) but keeps the subscription.
func TestDropNewestPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	sub, err := n.SubscribeBatch(0, 1, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Publish(testMsg(0)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.OverflowDrops != 2 || st.Deliveries != 1 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 2, 1", st.OverflowDrops, st.Deliveries)
	}
	if one := testMsg(0); st.PayloadBytesDelivered != uint64(one.PayloadBytes()) {
		t.Fatalf("PayloadBytesDelivered = %d, want one message's %d", st.PayloadBytesDelivered, one.PayloadBytes())
	}
	if st.SlowEvictions != 0 || sub.Evicted() {
		t.Fatal("DropNewest must not evict")
	}
	// The first message survived; its seq is 1 and the next delivered
	// message (after draining) exposes the gap to the client.
	if got := take(sub); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("kept %v, want only seq 1", got)
	}
	if err := n.Publish(testMsg(0)); err != nil {
		t.Fatal(err)
	}
	if got := take(sub); len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("post-drop messages %v, want seq 4 (seqs 2,3 dropped)", got)
	}
	sub.Cancel()
}

// TestParsePolicy covers the flag-facing round trip.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, Evict, DropNewest} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy should reject unknown names")
	}
}
