package fanout

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/netfault"
	"qsub/internal/relation"
	"qsub/internal/wire"
)

// world is one session over an in-memory connection whose far end — the
// "client" — reads through a netfault wrapper, so a test decides when the
// writer's bytes go anywhere. net.Pipe has no buffer: while the client's
// reads are stalled the writer is parked in its first write and every
// further frame stays in the session's queue, at whatever depth the test
// pushes it to.
type world struct {
	hub    *Hub
	cat    *metrics.Catalog
	net    *multicast.Network
	sess   *Session
	client *netfault.Conn
}

func newWorld(t *testing.T, channels int, lim Limits) *world {
	t.Helper()
	cat := metrics.NewCatalog(channels)
	mnet, err := multicast.NewNetwork(channels)
	if err != nil {
		t.Fatal(err)
	}
	mnet.SetMetrics(cat.FanoutDeliveries, cat.FanoutDropped, cat.FanoutEvictions, cat.FanoutEncodes)
	mnet.SetEncoder(func(m multicast.Message) []byte { return wire.AppendMessageFrame(nil, m) })
	hub := NewHub(cat, func() int64 { return time.Now().UnixNano() }, t.Logf, nil)
	server, client := net.Pipe()
	sess, err := hub.Open(server, 7, lim)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sess.Close()
		client.Close()
		mnet.Close()
	})
	return &world{hub: hub, cat: cat, net: mnet, sess: sess, client: netfault.Wrap(client)}
}

// answer builds one message for the channel; the tuple payload makes
// every frame's bytes distinct.
func answer(channel, n int) multicast.Message {
	return multicast.Message{Channel: channel, Tuples: []relation.Tuple{{ID: uint64(n), Payload: []byte(fmt.Sprintf("tuple %d", n))}}}
}

// TestInBandOrder is the component's ordering rule: answer frames
// published on the session's channel, control frames pushed by its owner
// and moves between channels reach the connection in exactly the order
// they were queued, whatever backlog the writer finds when it gets to
// them — one frame, a full flush of 256, or several flushes' worth —
// and only the answer frames among them are qsub_fanout_* frames.
func TestInBandOrder(t *testing.T) {
	for _, depth := range []int{1, 9, 256, 257, 1000} {
		t.Run(fmt.Sprintf("backlog=%d", depth), func(t *testing.T) {
			w := newWorld(t, 2, Limits{Buffer: 2 * depth, Policy: multicast.Block, WriteTimeout: 5 * time.Second})
			w.client.StallReads()
			rng := rand.New(rand.NewSource(int64(depth)))

			// The reference is a tap beside the session: want collects, in
			// publish order, the frame of every message published on the
			// channel the session is bound to at that moment.
			var want []byte
			answers := 0
			ch := 0
			if _, err := w.sess.Bind(w.net, ch); err != nil {
				t.Fatal(err)
			}
			publish := func(channel, n int) {
				msg := answer(channel, n)
				tap, err := w.net.SubscribeBatch(channel, 1, multicast.Block)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.net.Publish(msg); err != nil {
					t.Fatal(err)
				}
				got, _ := tap.NextBatch()
				tap.Cancel()
				if channel == ch {
					want = append(want, got[0].Frame...)
					answers++
				}
			}
			for n := 0; n < depth; {
				switch rng.Intn(8) {
				case 0: // a control frame between answers
					payload := []byte(fmt.Sprintf("ctl %d", n))
					w.sess.Push(wire.TypeError, payload)
					want = wire.AppendFrame(want, wire.TypeError, payload)
				case 1: // a move, announced in-band
					ch = 1 - ch
					if moved, err := w.sess.Bind(w.net, ch); err != nil || !moved {
						t.Fatalf("Bind(%d) = %v, %v", ch, moved, err)
					}
					payload := wire.MarshalAssigned(wire.Assigned{Channel: ch})
					w.sess.Push(wire.TypeAssigned, payload)
					want = wire.AppendFrame(want, wire.TypeAssigned, payload)
				default:
					publish(rng.Intn(2), n) // the other channel's frames are not the session's
				}
				n++
			}
			if w.cat.FanoutFramesWritten.Load() != 0 {
				t.Fatalf("%d frames written while the client was not reading", w.cat.FanoutFramesWritten.Load())
			}

			w.client.ResumeReads()
			got := make([]byte, len(want))
			w.client.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(w.client, got); err != nil {
				t.Fatalf("reading %d bytes: %v", len(want), err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("stream differs from queue order at byte %d of %d", i, len(want))
			}
			waitFor(t, "the writer's accounting", func() bool {
				return w.cat.FanoutFramesWritten.Load() == uint64(answers)
			})
			// Deliveries include the taps' own (one per publish).
			if shared := w.cat.FanoutFramesShared.Load(); shared != uint64(answers) {
				t.Fatalf("%d shared frames written for %d answers", shared, answers)
			}
		})
	}
}

// TestSessionMoves: a session keeps its queue and its writer across
// moves — a hundred rebinds start no goroutine and join none — and the
// frames of each channel it visits arrive complete and in order.
func TestSessionMoves(t *testing.T) {
	w := newWorld(t, 4, Limits{Buffer: 64, Policy: multicast.Block, WriteTimeout: 5 * time.Second})
	seqs := make(chan [2]uint64, 1024)
	go func() {
		var buf []byte
		for {
			ft, payload, err := wire.ReadFrameAppend(buf[:0], w.client)
			if err != nil {
				close(seqs)
				return
			}
			buf = payload
			if ft == wire.TypeAnswer {
				msg, err := wire.UnmarshalMessage(payload)
				if err != nil {
					panic(err)
				}
				seqs <- [2]uint64{uint64(msg.Channel), msg.Seq}
			}
		}
	}()
	if _, err := w.sess.Bind(w.net, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the reader goroutine is up
	before := runtime.NumGoroutine()
	next := make([]uint64, 4)
	for move := 0; move < 100; move++ {
		ch := (move + 1) % 4
		if moved, err := w.sess.Bind(w.net, ch); err != nil || !moved {
			t.Fatalf("move %d: Bind(%d) = %v, %v", move, ch, moved, err)
		}
		if again, _ := w.sess.Bind(w.net, ch); again {
			t.Fatalf("move %d: binding to the current channel counted as a move", move)
		}
		for i := 0; i < 3; i++ {
			if err := w.net.Publish(answer(ch, move)); err != nil {
				t.Fatal(err)
			}
			next[ch]++
			select {
			case got := <-seqs:
				if got != [2]uint64{uint64(ch), next[ch]} {
					t.Fatalf("move %d: received channel %d seq %d, want channel %d seq %d", move, got[0], got[1], ch, next[ch])
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("move %d: frame %d never arrived", move, i)
			}
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("move %d: %d goroutines, %d before the first move", move, n, before)
		}
	}
	// (The writer notes a sequence number an instant after the client
	// has read its frame.)
	waitFor(t, "the session to read as caught up on channel 0", func() bool {
		lag := w.hub.TopLaggards(1)[0]
		return lag.Channel == 0 && lag.SeqLag == 0
	})
}

// TestControlFramesFollowPolicy: a control frame is never dropped. With a
// full queue Push waits for room under Block and DropNewest, and under
// Evict the session is evicted — counted once, told why, and closed.
func TestControlFramesFollowPolicy(t *testing.T) {
	for _, policy := range []multicast.Policy{multicast.Block, multicast.DropNewest, multicast.Evict} {
		t.Run(policy.String(), func(t *testing.T) {
			w := newWorld(t, 1, Limits{Buffer: 4, Policy: policy, WriteTimeout: 5 * time.Second})
			w.client.StallReads()
			if _, err := w.sess.Bind(w.net, 0); err != nil {
				t.Fatal(err)
			}
			// The writer takes the first frame and parks in its write;
			// four more fill the queue.
			w.sess.Push(wire.TypeReady, nil)
			waitFor(t, "the writer to take the first frame", func() bool { return w.hub.TopLaggards(1)[0].QueueDepth == 0 })
			for i := 0; i < 4; i++ {
				if !w.sess.Push(wire.TypeReady, nil) {
					t.Fatalf("push %d into a queue with room failed", i)
				}
			}
			pushed := make(chan bool, 1)
			go func() { pushed <- w.sess.Push(wire.TypeAssigned, wire.MarshalAssigned(wire.Assigned{Channel: 0})) }()

			if policy == multicast.Evict {
				if ok := <-pushed; ok {
					t.Fatal("Push into a full Evict queue reported success")
				}
				if got := w.cat.FanoutEvictions.Load(); got != 1 {
					t.Fatalf("qsub_fanout_evictions_total = %d, want 1", got)
				}
				w.client.ResumeReads()
				var last uint8
				var msg []byte
				for {
					ft, payload, err := wire.ReadFrame(w.client)
					if err != nil {
						break
					}
					last, msg = ft, payload
				}
				if e, err := wire.UnmarshalError(msg); last != wire.TypeError || err != nil || e.Msg == "" {
					t.Fatalf("evicted session's stream ends with frame type %d (%q), want the eviction Error", last, msg)
				}
				if got := w.cat.SessionsEvicted.Load(); got != 1 {
					t.Fatalf("qsub_sessions_evicted_total = %d, want 1", got)
				}
				return
			}
			select {
			case <-pushed:
				t.Fatal("Push into a full queue returned before the writer made room")
			case <-time.After(20 * time.Millisecond):
			}
			w.client.ResumeReads()
			go io.Copy(io.Discard, w.client)
			if ok := <-pushed; !ok {
				t.Fatal("Push failed though the queue drained")
			}
		})
	}
}

// TestWriteTimeoutClosesSession: a flush that cannot complete within the
// write deadline ends the session and is counted as a write expiry.
func TestWriteTimeoutClosesSession(t *testing.T) {
	w := newWorld(t, 1, Limits{Buffer: 4, Policy: multicast.Block, WriteTimeout: 30 * time.Millisecond})
	w.client.StallReads()
	w.sess.Push(wire.TypeReady, nil)
	waitFor(t, "the write deadline", func() bool { return w.cat.SessionsExpiredWrite.Load() == 1 })
	if w.sess.Push(wire.TypeReady, nil) {
		t.Fatal("Push succeeded on a session whose writer gave up")
	}
	w.client.ResumeReads()
	if _, err := w.client.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after a write expiry")
	}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
