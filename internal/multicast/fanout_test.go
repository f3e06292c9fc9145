package multicast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"qsub/internal/metrics"
	"qsub/internal/relation"
)

// fakeFrame builds a deterministic stand-in wire frame: channel, seq and
// tuple ids. The delivery contract under test (one encode per publish,
// shared immutable bytes) is format-agnostic; the real wire encoding is
// pinned by the daemon equivalence tests.
func fakeFrame(m Message) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(m.Channel))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	for _, t := range m.Tuples {
		buf = binary.BigEndian.AppendUint64(buf, t.ID)
	}
	return buf
}

// TestEncodeOncePerPublish pins the tentpole contract: with an encoder
// installed, each Publish encodes exactly once regardless of subscriber
// count, and every subscriber receives the very same backing array.
func TestEncodeOncePerPublish(t *testing.T) {
	const subscribers, messages = 50, 7
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	encodesCounter := reg.Counter("encodes", "")
	net.SetMetrics(nil, nil, nil, encodesCounter)
	var encodes atomic.Int64
	net.SetEncoder(func(m Message) []byte {
		encodes.Add(1)
		return fakeFrame(m)
	})

	subs := make([]*Subscription, subscribers)
	for i := range subs {
		if subs[i], err = net.Subscribe(0, messages); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < messages; i++ {
		if err := net.Publish(Message{Channel: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := encodes.Load(); got != messages {
		t.Fatalf("encoder ran %d times for %d messages × %d subscribers, want exactly %d",
			got, messages, subscribers, messages)
	}
	if got := encodesCounter.Load(); got != messages {
		t.Fatalf("encodes metric = %d, want %d", got, messages)
	}
	// Every subscriber's copy of message seq s aliases one shared array.
	shared := make(map[uint64]*byte)
	for _, sub := range subs {
		sub.Cancel()
		for _, msg := range drainAll(sub) {
			if len(msg.Frame) == 0 {
				t.Fatalf("message seq %d delivered without a frame", msg.Seq)
			}
			first := &msg.Frame[0]
			if prev, ok := shared[msg.Seq]; ok && prev != first {
				t.Fatalf("message seq %d delivered from two distinct frame arrays", msg.Seq)
			}
			shared[msg.Seq] = first
			if want := fakeFrame(Message{Channel: 0, Seq: msg.Seq}); !bytes.Equal(msg.Frame, want) {
				t.Fatalf("frame for seq %d corrupted", msg.Seq)
			}
		}
	}
	if len(shared) != messages {
		t.Fatalf("observed %d distinct frames, want %d", len(shared), messages)
	}
}

// TestEncoderSkippedWithoutSubscribers: a publish on an empty channel
// performs no encode at all — encode cost is per delivered message, not
// per publish attempt.
func TestEncoderSkippedWithoutSubscribers(t *testing.T) {
	net, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	var encodes atomic.Int64
	net.SetEncoder(func(m Message) []byte {
		encodes.Add(1)
		return fakeFrame(m)
	})
	if err := net.Publish(Message{Channel: 1}); err != nil {
		t.Fatal(err)
	}
	if got := encodes.Load(); got != 0 {
		t.Fatalf("encoder ran %d times on a subscriber-less channel, want 0", got)
	}
}

// TestSharedFrameImmutableUnderStress is the aliasing tripwire: many
// subscribers across policies (Block, Evict, DropNewest), concurrent
// publishers and concurrent cancels all hold the same frame arrays; the
// consumers continuously compare their copy against a snapshot taken at
// encode time. Any post-publish write to a shared frame fails the
// comparison — and, run under -race (make race-delivery), shows up as a
// data race between the writer and the byte-wise readers.
func TestSharedFrameImmutableUnderStress(t *testing.T) {
	const (
		channels   = 2
		publishers = 3
		rounds     = 40
	)
	net, err := NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot every frame at encode time, keyed by (channel, seq).
	var snapMu sync.Mutex
	snaps := make(map[[2]uint64][]byte)
	net.SetEncoder(func(m Message) []byte {
		frame := fakeFrame(m)
		snapMu.Lock()
		snaps[[2]uint64{uint64(m.Channel), m.Seq}] = append([]byte(nil), frame...)
		snapMu.Unlock()
		return frame
	})

	policies := []Policy{Block, Evict, DropNewest}
	var consumers sync.WaitGroup
	var mismatches atomic.Int64
	var subsMu sync.Mutex
	var subs []*Subscription
	for ch := 0; ch < channels; ch++ {
		for i, p := range []Policy{policies[0], policies[1], policies[2], policies[1]} {
			sub, err := net.SubscribeBatch(ch, 2+i, p)
			if err != nil {
				t.Fatal(err)
			}
			subsMu.Lock()
			subs = append(subs, sub)
			subsMu.Unlock()
			consumers.Add(1)
			go func(sub *Subscription) {
				defer consumers.Done()
				for {
					batch, ok := sub.NextBatch()
					for _, msg := range batch {
						snapMu.Lock()
						want := snaps[[2]uint64{uint64(msg.Channel), msg.Seq}]
						snapMu.Unlock()
						if !bytes.Equal(msg.Frame, want) {
							mismatches.Add(1)
						}
					}
					if !ok {
						return
					}
				}
			}(sub)
		}
	}

	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for r := 0; r < rounds; r++ {
				msg := Message{Channel: (p + r) % channels}
				if err := net.Publish(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Concurrent cancels race the publishes (detach + drain paths alias
	// the frames too).
	pubs.Add(1)
	go func() {
		defer pubs.Done()
		subsMu.Lock()
		victims := append([]*Subscription(nil), subs[:2]...)
		subsMu.Unlock()
		for _, sub := range victims {
			sub.Cancel()
		}
	}()
	pubs.Wait()
	net.Close()
	consumers.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d delivered frames differed from their encode-time snapshot — shared slice was mutated after publish", n)
	}
}

// allocNetwork builds a network for the allocation pins: an
// allocation-free encoder (one precomputed frame), optionally every
// fan-out metric and a fixed clock, and the given number of Block-policy
// queue subscribers.
func allocNetwork(t *testing.T, subscribers int, withMetrics, withClock bool) (*Network, []*Subscription) {
	t.Helper()
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	if withMetrics {
		reg := metrics.NewRegistry()
		net.SetMetrics(
			reg.Counter("deliveries", ""), reg.Counter("dropped", ""),
			reg.Counter("evicted", ""), reg.Counter("encodes", ""))
	}
	if withClock {
		net.SetClock(func() int64 { return 1234567890 })
	}
	frame := []byte{1, 2, 3, 4}
	net.SetEncoder(func(Message) []byte { return frame })
	subs := make([]*Subscription, subscribers)
	for i := range subs {
		if subs[i], err = net.SubscribeBatch(0, 64, Block); err != nil {
			t.Fatal(err)
		}
	}
	return net, subs
}

// publishAllocs reports the allocations of one warm publish: op publishes
// and every subscriber drains, so the queues never fill and their two
// buffers are already grown when measuring starts.
func publishAllocs(subs []*Subscription, op func()) float64 {
	step := func() {
		op()
		for _, sub := range subs {
			sub.NextBatch()
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(200, step)
}

// TestPublishFrameMetricsAllocFree pins the zero-allocation publish: a
// warm Publish of one framed message to 1 or 32 queue subscribers
// allocates nothing, with and without the fan-out metrics and the clock.
func TestPublishFrameMetricsAllocFree(t *testing.T) {
	for _, subscribers := range []int{1, 32} {
		for _, withMetrics := range []bool{false, true} {
			for _, withClock := range []bool{false, true} {
				net, subs := allocNetwork(t, subscribers, withMetrics, withClock)
				msg := Message{Channel: 0, Tuples: []relation.Tuple{{ID: 1, Payload: []byte("x")}}}
				allocs := publishAllocs(subs, func() {
					if err := net.Publish(msg); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("Publish to %d subscribers (metrics %t, clock %t): %v allocs/op, want 0",
						subscribers, withMetrics, withClock, allocs)
				}
			}
		}
	}
}

// TestPublishBatchAllocFree pins the run form of the same loop: a warm
// PublishBatch of 8 framed messages to queue subscribers allocates
// nothing, with and without the fan-out metrics and the clock.
func TestPublishBatchAllocFree(t *testing.T) {
	for _, withMetrics := range []bool{false, true} {
		for _, withClock := range []bool{false, true} {
			net, subs := allocNetwork(t, 4, withMetrics, withClock)
			msgs := runMessages(0, 8)
			allocs := publishAllocs(subs, func() {
				if err := net.PublishBatch(msgs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("PublishBatch of 8 (metrics %t, clock %t): %v allocs/op, want 0", withMetrics, withClock, allocs)
			}
		}
	}
}

func ExampleNetwork_SetEncoder() {
	net, _ := NewNetwork(1)
	net.SetEncoder(func(m Message) []byte {
		return []byte(fmt.Sprintf("frame(seq=%d)", m.Seq))
	})
	sub, _ := net.Subscribe(0, 1)
	net.Publish(Message{Channel: 0})
	batch, _ := sub.NextBatch()
	fmt.Println(string(batch[0].Frame))
	// Output: frame(seq=1)
}

// TestPublishClockStampAllocFree pins the timestamp half of the
// zero-alloc contract: with a publish clock installed, every message is
// stamped at seq assignment without a single allocation, and the stamp
// reaches queue subscribers (and the encoder) intact; without one,
// messages stay unstamped.
func TestPublishClockStampAllocFree(t *testing.T) {
	for _, withClock := range []bool{false, true} {
		net, subs := allocNetwork(t, 1, false, withClock)
		var stamped int64
		frame := []byte{1, 2, 3, 4}
		net.SetEncoder(func(m Message) []byte {
			stamped = m.PublishedUnixNano
			return frame
		})
		want := int64(0)
		if withClock {
			want = 1234567890
		}
		msg := Message{Channel: 0}
		allocs := testing.AllocsPerRun(100, func() {
			if err := net.Publish(msg); err != nil {
				t.Fatal(err)
			}
			batch, _ := subs[0].NextBatch()
			if len(batch) != 1 || batch[0].PublishedUnixNano != want {
				t.Fatalf("delivered %v, want one message stamped %d", batch, want)
			}
		})
		if stamped != want {
			t.Fatalf("encoder saw stamp %d, want %d", stamped, want)
		}
		if allocs != 0 {
			t.Fatalf("Publish (clock %t): %v allocs/op, want 0", withClock, allocs)
		}
	}
}

// TestPublishBatchStampsWholeRun pins PublishBatch's single clock read:
// every message of a batch carries the same stamp.
func TestPublishBatchStampsWholeRun(t *testing.T) {
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(100)
	net.SetClock(func() int64 { now++; return now })
	sub, err := net.Subscribe(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{{Channel: 0}, {Channel: 0}, {Channel: 0}}
	if err := net.PublishBatch(msgs); err != nil {
		t.Fatal(err)
	}
	got := take(sub)
	if len(got) != len(msgs) {
		t.Fatalf("received %d messages, want %d", len(got), len(msgs))
	}
	first := got[0].PublishedUnixNano
	if first == 0 {
		t.Fatal("batch message unstamped")
	}
	for i := 1; i < len(msgs); i++ {
		if got := got[i].PublishedUnixNano; got != first {
			t.Fatalf("batch message %d stamped %d, first was %d — one clock read per batch", i, got, first)
		}
	}
}
