package daemon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/wire"
)

// fanoutCfg parameterizes one wire-equivalence scenario.
type fanoutCfg struct {
	channels int
	policy   multicast.Policy
}

// fanoutWorld is the outcome of one daemon run: the exact bytes each
// client read off its socket, what a tap on each channel of the same
// network saw published, plus the fan-out counter values.
type fanoutWorld struct {
	streams  map[int][]byte
	taps     [][]multicast.Message // per channel, in publish order
	messages int                   // sum of Report.Messages across cycles
	encodes  uint64
	written  uint64
	delivers uint64
	bytes    uint64
}

// runFanoutWorld builds a deterministic daemon world (seeded relation,
// sequentially registered subscriptions, fixed solver seed), runs one
// full cycle plus three delta cycles with seeded churn, shuts down
// gracefully, and returns the raw per-client wire streams next to the
// reference: a SubscribeBatch queue on every channel of the same
// network, which receives each published message as a value — sequence
// number and stamp assigned — through none of the session machinery.
func runFanoutWorld(t *testing.T, cfg fanoutCfg) fanoutWorld {
	t.Helper()
	bounds := geom.R(0, 0, 1000, 1000)
	rel := relation.MustNew(bounds, 16, 16)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1500; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
	}
	d, err := New(rel, cfg.channels, server.Config{
		Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 5},
		Seed:  42,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SlowPolicy = cfg.policy
	// A fixed clock keeps the run reproducible. The stamping path itself
	// still runs — frames carry the timestamp field.
	d.Now = func() int64 { return 1_700_000_000_000_000_000 }
	// Buffers are deep enough that no policy ever actually drops or
	// evicts: the policies' enqueue paths run, but the streams stay
	// complete and comparable.
	d.SubscriberBuffer = 4096
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(context.Background(), ln)
	defer func() {
		d.Close()
		ln.Close()
	}()

	out := fanoutWorld{streams: make(map[int][]byte), taps: make([][]multicast.Message, cfg.channels)}
	var tapping sync.WaitGroup
	for ch := 0; ch < cfg.channels; ch++ {
		tap, err := d.Network().SubscribeBatch(ch, 4096, multicast.Block)
		if err != nil {
			t.Fatal(err)
		}
		tapping.Add(1)
		go func() {
			defer tapping.Done()
			for { // until the daemon closes its network
				batch, ok := tap.NextBatch()
				out.taps[ch] = append(out.taps[ch], batch...)
				if !ok {
					return
				}
			}
		}()
	}

	// Register clients strictly sequentially so the subscription
	// registry — and therefore the plan — is the same on every run.
	const clients = 6
	conns := make([]net.Conn, clients)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		if err := wire.WriteFrame(conn, wire.TypeHello,
			wire.MarshalHello(wire.Hello{ClientID: i + 1})); err != nil {
			t.Fatal(err)
		}
		x, y := rng.Float64()*800, rng.Float64()*800
		w := 60 + rng.Float64()*180
		payload, err := wire.MarshalSubscribe(wire.Subscribe{
			Query: query.Range(query.ID(i+1), geom.R(x, y, x+w, y+w))})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, wire.TypeSubscribe, payload); err != nil {
			t.Fatal(err)
		}
		waitForSubscriptions(t, d, i+1)
	}

	// Capture each client's raw byte stream until the daemon's graceful
	// Bye (or close).
	var mu sync.Mutex
	var readers sync.WaitGroup
	for i, conn := range conns {
		readers.Add(1)
		go func(id int, conn net.Conn) {
			defer readers.Done()
			var raw bytes.Buffer
			tee := io.TeeReader(conn, &raw)
			for {
				ft, _, err := wire.ReadFrame(tee)
				if err != nil || ft == wire.TypeBye {
					break
				}
			}
			mu.Lock()
			out.streams[id] = append([]byte(nil), raw.Bytes()...)
			mu.Unlock()
		}(i+1, conn)
	}

	cycle := func(delta bool) {
		rep, err := d.RunCycle(delta)
		if err != nil {
			t.Fatal(err)
		}
		out.messages += rep.Messages
	}
	cycle(false)
	for c := 0; c < 3; c++ {
		for i := 0; i < 60; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("payload"))
		}
		all := rel.All()
		for i := 0; i < 15; i++ {
			rel.Delete(all[rng.Intn(len(all))].ID)
		}
		cycle(true)
	}
	d.Shutdown()
	readers.Wait()
	tapping.Wait()

	cat := d.Metrics()
	out.encodes = cat.FanoutEncodes.Load()
	out.written = cat.FanoutFramesWritten.Load()
	out.delivers = cat.FanoutDeliveries.Load()
	out.bytes = cat.FanoutBytes.Load()
	return out
}

// TestFanoutWireEquivalence pins the encode-once fabric's correctness:
// every client socket carries exactly one Assigned, then byte for byte
// the frames a per-message encoder would have produced for its channel —
// each message the reference tap received, framed on its own with
// wire.AppendMessageFrame — then Bye, single and multi channel, under all
// three slow-consumer policies; while
// the fan-out counters confirm the fabric encoded once per message and
// count answer frames only (the in-band Assigned and Bye are not
// qsub_fanout_* frames).
func TestFanoutWireEquivalence(t *testing.T) {
	scenarios := []fanoutCfg{
		{channels: 1, policy: multicast.Block},
		{channels: 1, policy: multicast.Evict},
		{channels: 3, policy: multicast.Block},
		{channels: 3, policy: multicast.DropNewest},
		{channels: 3, policy: multicast.Evict},
	}
	for _, cfg := range scenarios {
		name := fmt.Sprintf("channels=%d/policy=%d", cfg.channels, cfg.policy)
		t.Run(name, func(t *testing.T) {
			w := runFanoutWorld(t, cfg)

			tapped := 0
			for _, msgs := range w.taps {
				tapped += len(msgs)
			}
			if tapped != w.messages || tapped == 0 {
				t.Fatalf("reference taps saw %d messages, cycles published %d", tapped, w.messages)
			}
			var answerFrames, answerBytes uint64
			for id, got := range w.streams {
				// The stream opens with the client's one Assigned (the plan
				// is computed once); that names the channel whose messages
				// must follow.
				ft, payload, err := wire.ReadFrame(bytes.NewReader(got))
				if err != nil || ft != wire.TypeAssigned {
					t.Fatalf("client %d: stream opens with frame type %d (%v), want Assigned", id, ft, err)
				}
				a, err := wire.UnmarshalAssigned(payload)
				if err != nil {
					t.Fatal(err)
				}
				want := wire.AppendFrame(nil, wire.TypeAssigned, payload)
				for _, msg := range w.taps[a.Channel] {
					msg.Frame = nil // the reference encodes for itself
					want = wire.AppendMessageFrame(want, msg)
					answerFrames++
				}
				answerBytes += uint64(len(want) - wire.HeaderSize - len(payload))
				want = wire.AppendFrame(want, wire.TypeBye, nil)
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && i < len(want) && got[i] == want[i] {
						i++
					}
					t.Fatalf("client %d stream differs from the per-message reference at byte %d (socket %d bytes, reference %d bytes)",
						id, i, len(got), len(want))
				}
			}

			// Exactly one encode per published message; every answer frame
			// the clients read was written once; the taps' deliveries are
			// the only ones no session writer wrote.
			if w.encodes != uint64(w.messages) {
				t.Errorf("encoded %d frames for %d messages, want one encode per message", w.encodes, w.messages)
			}
			if w.written != answerFrames {
				t.Errorf("%d frames written, clients read %d answer frames", w.written, answerFrames)
			}
			if w.delivers != answerFrames+uint64(tapped) {
				t.Errorf("%d deliveries, want %d to sessions + %d to the taps", w.delivers, answerFrames, tapped)
			}
			if w.bytes != answerBytes {
				t.Errorf("qsub_fanout_bytes_total = %d, clients read %d bytes of answer frames", w.bytes, answerBytes)
			}
		})
	}
}

// TestFanoutSharedFrameAliasingRace drives the real forwarder/writev
// path under -race with tiny buffers and the evict policy, so shared
// frames are concurrently written to sockets, drained by cancels and
// dropped by evictions while publish cycles keep encoding new ones. Any
// post-publish mutation of a shared frame is a read/write race with a
// forwarder and fails under the race detector; corrupted frames also
// fail to parse on the client side.
func TestFanoutSharedFrameAliasingRace(t *testing.T) {
	d, addr, _, _ := startDaemonCtx(t, 2, func(d *Daemon) {
		d.SubscriberBuffer = 1
		d.SlowPolicy = multicast.Evict
	})

	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		conn, err := netclient.Dial(addr, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Subscribe(query.Range(query.ID(100+i), geom.R(float64(i*50), 0, float64(i*50+400), 700))); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(conn *netclient.Conn, slow bool) {
			defer wg.Done()
			for {
				ev, err := conn.Next()
				if err != nil {
					return
				}
				if ev.Answer != nil && slow {
					// A slow consumer: let the delivery queue back up so
					// evictions race in-flight shared frames.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(conn, i%3 == 0)
	}
	waitForSubscriptions(t, d, clients)

	rng := rand.New(rand.NewSource(3))
	rel := d.Server().Relation()
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 40; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("obj"))
		}
		if _, err := d.RunCycle(cycle > 0); err != nil {
			// The stress is allowed to evict every client (buffer depth
			// 1); a cycle with nothing left to plan ends the run early.
			break
		}
	}
	d.Shutdown()
	wg.Wait()
	if d.Metrics().FanoutEncodes.Load() == 0 {
		t.Fatal("stress run never encoded a shared frame")
	}
}
