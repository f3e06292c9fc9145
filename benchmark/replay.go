package main

import (
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/shard"
	"qsub/internal/wire"
)

// Layer replays: after the measured window, each layer's public entry
// point is driven alone over inputs captured from one cycle of the
// workload, so its cost is known without the others running beside it.
// Every replay is recorded as a span under one "replay" root.

// replayBudget is how long a replay repeats its input to get a steady
// per-operation figure.
const replayBudget = 50 * time.Millisecond

// replayer times replays and records them as spans.
type replayer struct {
	tr   *tracer
	root int
}

func newReplayer(tr *tracer) *replayer {
	now := time.Now()
	return &replayer{tr: tr, root: tr.add(0, 0, "replay", now, now)}
}

// perOp repeats op (which performs n operations per call) for the replay
// budget and returns the mean time of one operation.
func (r *replayer) perOp(name string, n int, op func()) time.Duration {
	if n == 0 {
		return 0
	}
	start := time.Now()
	calls := 0
	for time.Since(start) < replayBudget {
		op()
		calls++
	}
	end := time.Now()
	r.tr.add(r.root, 0, name, start, end)
	return end.Sub(start) / time.Duration(calls*n)
}

// once times a single call.
func (r *replayer) once(name string, op func()) time.Duration {
	start := time.Now()
	op()
	end := time.Now()
	r.tr.add(r.root, 0, name, start, end)
	return end.Sub(start)
}

// close stretches the root span over its children.
func (r *replayer) close() {
	r.tr.spans[r.root-1].EndNs = time.Since(r.tr.epoch).Nanoseconds()
}

// replayWire measures the codec on the captured cycle's messages.
func (r *replayer) replayWire(msgs [][]multicast.Message, out map[string]float64) {
	var all []multicast.Message
	for _, ch := range msgs {
		all = append(all, ch...)
	}
	if len(all) == 0 {
		return
	}
	var buf []byte
	out["wire.encode_ns_per_frame"] = float64(r.perOp("wire.encode", len(all), func() {
		for _, m := range all {
			buf = wire.MarshalMessageAppend(buf[:0], m)
		}
	}).Nanoseconds())
	payloads := make([][]byte, len(all))
	sizes := make([]float64, len(all))
	for i, m := range all {
		payloads[i] = wire.MarshalMessage(m)
		sizes[i] = float64(len(payloads[i]) + wire.HeaderSize)
	}
	out["wire.decode_ns_per_frame"] = float64(r.perOp("wire.decode", len(all), func() {
		for _, p := range payloads {
			if _, err := wire.UnmarshalMessage(p); err != nil {
				panic(err) // our own encoding of a message the system delivered
			}
		}
	}).Nanoseconds())
	out["wire.frame_bytes_p50"] = median(sizes)
}

// replayMulticast publishes the captured messages into as many batch
// rings per channel as the workload has subscribers, drained by readers
// that do nothing: the hand-off cost without encode or socket writes.
func (r *replayer) replayMulticast(msgs [][]multicast.Message, perChannel []uint64, buffer int, out map[string]float64) error {
	mnet, err := multicast.NewNetwork(len(msgs))
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for ch, n := range perChannel {
		for i := uint64(0); i < n; i++ {
			sub, err := mnet.SubscribeBatch(ch, buffer, multicast.Block)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, ok := sub.NextBatch(); !ok {
						return
					}
				}
			}()
		}
	}
	deliveries := 0
	for ch, m := range msgs {
		deliveries += len(m) * int(perChannel[ch])
	}
	scratch := make([]multicast.Message, 0, 1024)
	var pubErr error
	per := r.perOp("multicast.publishbatch", deliveries, func() {
		for _, m := range msgs {
			// PublishBatch assigns sequence numbers in place.
			scratch = append(scratch[:0], m...)
			if err := mnet.PublishBatch(scratch); err != nil {
				pubErr = err
			}
		}
	})
	mnet.Close()
	wg.Wait()
	out["multicast.publishbatch_ns_per_delivery"] = float64(per.Nanoseconds())
	return pubErr
}

// replayWritev is the socket-write yardstick: the captured cycle's
// frames go to as many loopback sinks as the workload has sessions, one
// writer goroutine per sink as in the daemon, in vectored writes of the
// coalescing factor the daemon achieved.
func (r *replayer) replayWritev(msgs [][]multicast.Message, perChannel []uint64, framesPerFlush int, out map[string]float64) error {
	frames := make([]net.Buffers, len(msgs))
	for ch, m := range msgs {
		for _, msg := range m {
			frames[ch] = append(frames[ch], wire.AppendMessageFrame(nil, msg))
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type sink struct {
		conn net.Conn
		ch   int
	}
	var sinks []sink
	var readers sync.WaitGroup
	defer func() {
		for _, s := range sinks {
			s.conn.Close()
		}
		readers.Wait()
	}()
	for ch, n := range perChannel {
		for i := uint64(0); i < n; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return err
			}
			peer, err := ln.Accept()
			if err != nil {
				c.Close()
				return err
			}
			sinks = append(sinks, sink{c, ch})
			readers.Add(1)
			go func() {
				defer readers.Done()
				defer peer.Close()
				_, _ = io.Copy(io.Discard, peer) // ends when the writer side closes
			}()
		}
	}
	framesPerFlush = max(framesPerFlush, 1)
	var werr error
	var mu sync.Mutex
	round := func() {
		var wg sync.WaitGroup
		for _, s := range sinks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rest := frames[s.ch]; len(rest) > 0; {
					n := min(framesPerFlush, len(rest))
					batch := slices.Clone(rest[:n]) // WriteTo consumes the slice it is called on
					rest = rest[n:]
					if _, err := batch.WriteTo(s.conn); err != nil {
						mu.Lock()
						werr = err
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	round() // warm the connections
	var walls []float64
	start := time.Now()
	for i := 0; i < 9; i++ {
		t := time.Now()
		round()
		walls = append(walls, ms(time.Since(t)))
	}
	r.tr.add(r.root, 0, "daemon.writev_floor", start, time.Now())
	out["daemon.writev_floor_ms"] = median(walls)
	return werr
}

// replayClient runs one session's extractor per channel over that
// channel's captured messages.
func (r *replayer) replayClient(msgs [][]multicast.Message, clients []*client.Client, out map[string]float64) {
	n := 0
	for ch, m := range msgs {
		if clients[ch] != nil {
			n += len(m)
		}
	}
	out["client.handle_ns_per_frame"] = float64(r.perOp("client.handle", n, func() {
		for ch, m := range msgs {
			if clients[ch] == nil {
				continue
			}
			for _, msg := range m {
				clients[ch].Handle(msg)
			}
		}
	}).Nanoseconds())
}

// planRegions materializes the merged region of every transmitted set.
func planRegions(qs []query.Query, plans []core.Plan) []geom.Region {
	var out []geom.Region
	for _, plan := range plans {
		out = append(out, core.MergedRegions(qs, query.BoundingRect{}, plan)...)
	}
	return out
}

// replayRelation measures the estimator and the delta probe over the
// plan's merged regions.
func (r *replayer) replayRelation(rel *relation.Relation, regions []geom.Region, since uint64, out map[string]float64) {
	est := relation.Exact{Rel: rel}
	out["relation.estimate_us_per_probe"] = float64(r.perOp("relation.estimate", len(regions), func() {
		for _, reg := range regions {
			est.SizeBytes(reg)
		}
	}).Nanoseconds()) / 1e3
	if since == 0 {
		return
	}
	var buf []relation.Tuple
	removed := make([][]uint64, len(regions))
	out["relation.delta_probe_ms"] = ms(r.perOp("relation.delta_probe", 1, func() {
		di := rel.Delta(since)
		for _, reg := range regions {
			buf = di.SearchAppend(reg, buf[:0])
		}
		if len(di.Deleted()) > 0 {
			clear(removed)
			di.MatchDeletedAppend(regions, removed)
		}
	}))
}

// replayShard reruns the sharded planning pipeline on the subscriptions.
func (r *replayer) replayShard(p *shard.Problem, out map[string]float64) error {
	var res *shard.Result
	var err error
	out["shard.plan_ms"] = ms(r.once("shard.plan", func() { res, err = shard.Plan(p) }))
	if err != nil {
		return err
	}
	out["shard.reps_per_query"] = float64(res.Stats.Reps) / float64(res.Stats.Queries)
	if p.Config.Aggregate {
		out["shard.aggregate_ms"] = ms(r.once("shard.aggregate", func() { shard.Aggregate(p.Queries, p.Config.AggSlack) }))
	}
	return nil
}
