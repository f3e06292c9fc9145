package multicast

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"qsub/internal/relation"
)

// drainAll consumes a batch subscription until it ends, returning every
// message in arrival order.
func drainAll(sub *Subscription) []Message {
	var got []Message
	for {
		batch, ok := sub.NextBatch()
		got = append(got, batch...)
		if !ok {
			return got
		}
	}
}

func TestBatchSubscriptionDeliversInOrder(t *testing.T) {
	n, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(1, 8, Block)
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	done := make(chan []Message)
	go func() { done <- drainAll(sub) }()
	for i := 0; i < total; i++ {
		if err := n.Publish(Message{Channel: 1, Tuples: []relation.Tuple{{ID: uint64(i)}}}); err != nil {
			t.Error(err)
		}
	}
	n.Close()
	got := <-done
	if len(got) != total {
		t.Fatalf("got %d messages, want %d", len(got), total)
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
		if m.Tuples[0].ID != uint64(i) {
			t.Fatalf("message %d carries tuple %d, want %d", i, m.Tuples[0].ID, i)
		}
	}
	st := n.Stats()
	if st.Deliveries != total {
		t.Fatalf("Deliveries = %d, want %d", st.Deliveries, total)
	}
}

func TestBatchBlockPolicyBackpressure(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, Block)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the ring, then start a publish that must block.
	for i := 0; i < 2; i++ {
		if err := n.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error)
	go func() { blocked <- n.Publish(Message{Channel: 0}) }()
	select {
	case <-blocked:
		t.Fatal("publish returned with a full Block-policy ring")
	case <-time.After(20 * time.Millisecond):
	}
	// One drain releases the publisher.
	batch, ok := sub.NextBatch()
	if !ok || len(batch) != 2 {
		t.Fatalf("NextBatch = %d messages, ok=%v; want 2, true", len(batch), ok)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	batch, ok = sub.NextBatch()
	if !ok || len(batch) != 1 || batch[0].Seq != 3 {
		t.Fatalf("NextBatch after release = %v, ok=%v; want the seq-3 message", batch, ok)
	}
	sub.Cancel()
	if _, ok := sub.NextBatch(); ok {
		t.Fatal("NextBatch must report done after Cancel")
	}
}

func TestBatchCancelReleasesBlockedPublisher(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error)
	go func() { blocked <- n.Publish(Message{Channel: 0}) }()
	time.Sleep(10 * time.Millisecond)
	sub.Cancel()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// The buffered message stays readable after Cancel.
	got := drainAll(sub)
	if len(got) != 1 {
		t.Fatalf("drained %d messages after Cancel, want the 1 buffered", len(got))
	}
}

func TestBatchEvictPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	// Ring full: this publish evicts the subscription instead of blocking.
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if !sub.Evicted() {
		t.Fatal("subscription should be evicted")
	}
	if st := n.Stats(); st.SlowEvictions != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", st.SlowEvictions)
	}
	if got := drainAll(sub); len(got) != 1 {
		t.Fatalf("drained %d messages, want the 1 delivered before eviction", len(got))
	}
}

func TestBatchDropNewestPolicy(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 1, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Stats(); st.OverflowDrops != 2 || st.Deliveries != 1 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 2, 1", st.OverflowDrops, st.Deliveries)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("kept %v, want only the first message", got)
	}
}

// runMessages builds total messages for channel ch whose one tuple id is
// the message's position in the run.
func runMessages(ch, total int) []Message {
	msgs := make([]Message, total)
	for i := range msgs {
		msgs[i] = Message{Channel: ch, Tuples: []relation.Tuple{{ID: uint64(i), Payload: make([]byte, i%5)}}}
	}
	return msgs
}

// publishAll publishes msgs as one PublishBatch run, or one by one with
// Publish.
func publishAll(t *testing.T, n *Network, msgs []Message, batch bool) {
	t.Helper()
	if batch {
		if err := n.PublishBatch(msgs); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, m := range msgs {
		if err := n.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
}

// sameStream compares two delivered streams by seq and tuple id.
func sameStream(t *testing.T, name string, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d messages, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Tuples[0].ID != want[i].Tuples[0].ID {
			t.Fatalf("%s: message %d = seq %d tuple %d, want seq %d tuple %d",
				name, i, got[i].Seq, got[i].Tuples[0].ID, want[i].Seq, want[i].Tuples[0].ID)
		}
	}
}

// TestPublishBatchEquivalence pins the one delivery loop: a run published
// with PublishBatch and the same messages published one at a time with
// Publish (runs of one) leave every queue subscriber the same stream
// (order, seqs, tuples), the same eviction state and the same stats under
// each policy. Block subscribers drain concurrently, so a run parks on a
// full queue and resumes; Evict and DropNewest subscribers drain only
// afterwards, so the 3- and 8-message queues fill and the 64-message one
// never does. Under seeded loss both forms drop exactly the copies a
// replay of the seeded draws predicts: one row per target per call,
// target-major.
func TestPublishBatchEquivalence(t *testing.T) {
	const total = 50
	buffers := []int{3, 8, 64}
	for _, policy := range []Policy{Block, Evict, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			run := func(batch bool) ([][]Message, []bool, Stats) {
				n, err := NewNetwork(2)
				if err != nil {
					t.Fatal(err)
				}
				subs := make([]*Subscription, len(buffers))
				for i, b := range buffers {
					if subs[i], err = n.SubscribeBatch(1, b, policy); err != nil {
						t.Fatal(err)
					}
				}
				streams := make([][]Message, len(subs))
				var wg sync.WaitGroup
				if policy == Block {
					for i, sub := range subs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							streams[i] = drainAll(sub)
						}()
					}
				}
				publishAll(t, n, runMessages(1, total), batch)
				st := n.Stats()
				n.Close()
				wg.Wait()
				evicted := make([]bool, len(subs))
				for i, sub := range subs {
					if policy != Block {
						streams[i] = drainAll(sub)
					}
					evicted[i] = sub.Evicted()
				}
				return streams, evicted, st
			}
			streamsB, evictedB, stB := run(true)
			streamsP, evictedP, stP := run(false)
			if stB != stP {
				t.Errorf("stats differ: batch %+v, per-message %+v", stB, stP)
			}
			if !slices.Equal(evictedB, evictedP) {
				t.Errorf("evictions differ: batch %v, per-message %v", evictedB, evictedP)
			}
			for i := range buffers {
				sameStream(t, fmt.Sprintf("buffer %d", buffers[i]), streamsB[i], streamsP[i])
			}
			if policy != Block && (len(streamsB[2]) != total || evictedB[2]) {
				t.Errorf("the 64-message queue got %d messages, evicted %t; want all %d", len(streamsB[2]), evictedB[2], total)
			}
		})
	}
	t.Run("loss", func(t *testing.T) {
		const seed, rate, targets = 7, 0.3, 3
		for _, batch := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			drop := make([][]bool, targets) // [target][message]
			for ti := range drop {
				drop[ti] = make([]bool, total)
			}
			if batch {
				for ti := range drop {
					for i := range drop[ti] {
						drop[ti][i] = rng.Float64() < rate
					}
				}
			} else {
				for i := 0; i < total; i++ {
					for ti := range drop {
						drop[ti][i] = rng.Float64() < rate
					}
				}
			}
			n, err := NewNetwork(2, WithLoss(rate, seed))
			if err != nil {
				t.Fatal(err)
			}
			subs := make([]*Subscription, targets)
			for i := range subs {
				if subs[i], err = n.SubscribeBatch(1, total, Block); err != nil {
					t.Fatal(err)
				}
			}
			msgs := runMessages(1, total)
			publishAll(t, n, msgs, batch)
			st := n.Stats()
			n.Close()
			var delivered, bytes uint64
			for ti, sub := range subs {
				var want []Message
				for i, d := range drop[ti] {
					if !d {
						want = append(want, Message{Seq: uint64(i + 1), Tuples: msgs[i].Tuples})
						bytes += uint64(msgs[i].PayloadBytes())
					}
				}
				delivered += uint64(len(want))
				sameStream(t, fmt.Sprintf("batch=%t target %d", batch, ti), drainAll(sub), want)
			}
			if st.Deliveries != delivered || st.Dropped != targets*total-delivered || st.PayloadBytesDelivered != bytes {
				t.Errorf("batch=%t: Deliveries %d, Dropped %d, PayloadBytesDelivered %d; want %d, %d, %d",
					batch, st.Deliveries, st.Dropped, st.PayloadBytesDelivered, delivered, targets*total-delivered, bytes)
			}
		}
	})
}

// TestPublishWakesParkedConsumer: a consumer parked on an empty queue is
// woken by the run that makes it non-empty, a run of one included,
// without waiting for the queue to close.
func TestPublishWakesParkedConsumer(t *testing.T) {
	for _, size := range []int{1, 4} {
		n, err := NewNetwork(1)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := n.SubscribeBatch(0, 8, Block)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan int)
		go func() {
			for {
				batch, ok := sub.NextBatch()
				if len(batch) > 0 || !ok {
					got <- len(batch)
				}
				if !ok {
					return
				}
			}
		}()
		for round := 0; round < 3; round++ {
			time.Sleep(5 * time.Millisecond) // let the consumer park
			publishAll(t, n, runMessages(0, size), size > 1)
			received := 0
			for received < size {
				select {
				case k := <-got:
					received += k
				case <-time.After(5 * time.Second):
					t.Fatalf("run of %d, round %d: parked consumer never woke", size, round)
				}
			}
		}
		n.Close()
		<-got
	}
}

// TestPublishBatchSeqContinuity pins that Publish and PublishBatch share
// one per-channel sequence space with no gaps across the boundary.
func TestPublishBatchSeqContinuity(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 16, Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(Message{Channel: 0}); err != nil {
		t.Fatal(err)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 7 {
		t.Fatalf("got %d messages, want 7", len(got))
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}

// TestPublishBatchBlockMidRun fills a Block-policy ring mid-run and
// checks the publisher parks until the consumer drains, losing nothing.
func TestPublishBatchBlockMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 3, Block)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []Message)
	go func() { done <- drainAll(sub) }()
	if err := n.PublishBatch(make([]Message, 10)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	got := <-done
	if len(got) != 10 {
		t.Fatalf("got %d messages, want 10", len(got))
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}

// TestPublishBatchEvictMidRun checks a full Evict-policy ring ends the
// subscriber's run: buffered messages survive, the rest never land.
func TestPublishBatchEvictMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, Evict)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	if !sub.Evicted() {
		t.Fatal("subscription should be evicted")
	}
	st := n.Stats()
	if st.SlowEvictions != 1 || st.Deliveries != 2 {
		t.Fatalf("SlowEvictions = %d, Deliveries = %d; want 1, 2", st.SlowEvictions, st.Deliveries)
	}
	if got := drainAll(sub); len(got) != 2 {
		t.Fatalf("drained %d messages, want the 2 buffered before eviction", len(got))
	}
}

// TestPublishBatchDropNewestMidRun checks overflow inside a run counts
// drops per message while keeping what fit.
func TestPublishBatchDropNewestMidRun(t *testing.T) {
	n, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.SubscribeBatch(0, 2, DropNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.PublishBatch(make([]Message, 5)); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.OverflowDrops != 3 || st.Deliveries != 2 {
		t.Fatalf("OverflowDrops = %d, Deliveries = %d; want 3, 2", st.OverflowDrops, st.Deliveries)
	}
	n.Close()
	got := drainAll(sub)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("kept %v, want the first two messages", got)
	}
}

// TestPublishBatchRejectsMixedChannels pins the single-channel contract.
func TestPublishBatchRejectsMixedChannels(t *testing.T) {
	n, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	err = n.PublishBatch([]Message{{Channel: 0}, {Channel: 1}})
	if err == nil {
		t.Fatal("PublishBatch accepted a run spanning two channels")
	}
}
