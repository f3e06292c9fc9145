package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/daemon"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/netclient"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/relay"
	"qsub/internal/server"
	"qsub/internal/shard"
	"qsub/internal/workload"
)

// netBench drives the four socket workloads: one daemon, optional
// in-process relays and netclient sessions, all in this process over
// loopback TCP. Sessions are the system's fan-out dimension, not load
// generators: one driver goroutine issues cycles in lockstep.
type netBench struct {
	spec workloadSpec
	sz   sizes
	opts options
	tally

	rng     *rand.Rand
	gen     *workload.Generator
	payload []byte
	points  []geom.Point // insert positions, consumed round-robin
	nextPt  int
	live    []uint64      // ids a delete may pick
	spare   []query.Query // replacement subscriptions for swaps
	queries int           // registered (client, query) subscriptions

	rel         *relation.Relation
	d           *daemon.Daemon
	cat         *metrics.Catalog // the daemon's
	clientCat   *metrics.Catalog // extractor counters shared by every session
	ln          net.Listener
	served      chan struct{}
	relays      []*relay.Relay
	relayCancel context.CancelFunc
	relayWG     sync.WaitGroup
	sessions    []*netSession
	cancel      context.CancelFunc
	wg          sync.WaitGroup

	bar       *barrier
	assigns   atomic.Uint64 // Assigned events the sessions have processed
	measuring atomic.Bool   // sessions sample latency
	capturing atomic.Bool   // sessions copy their messages

	assignsSeen uint64   // Assigned events accounted for by settle
	replans     int      // replans accounted for by settle
	perChannel  []uint64 // sessions bound to each channel
	chanMsgs    []uint64 // per-channel message counters at the last settle
	want        uint64   // frames expected in total so far
	encodes     uint64   // encode counter at the last settle
	irrelevant  uint64   // irrelevant-tuple counter at the last realizedCost

	segments     // counter totals over the measured cycles
	period   int // verification rounds so far

	// Traced runs only.
	stages     []stageSample
	pending    map[uint64]int // ledger ordinal -> index into stages
	maxDepth   int64
	maxSeqLag  int64
	fullCost   float64 // realized cost of the bootstrap full publish
	fullPlan   float64 // and the EstimatedCost it ran under
	captured   [][]multicast.Message
	captureOf  []*netSession // per channel, the session whose messages were captured
	since      uint64        // relation watermark before the captured cycle's change
	deltaBatch int
}

// stageSample is one measured cycle's timeline, completed from the
// daemon's cycle ledger once its write stage is final.
type stageSample struct {
	cycle          int
	runID, awaitID int
	t1, t2, t3     time.Time
	rec            daemon.CycleRecord
	runCycleWallMs float64
}

// netSession is one subscriber: a resilient netclient session plus what
// the driver needs to know about it.
type netSession struct {
	id      int
	nc      *netclient.Client
	queries []query.Query               // current subscriptions
	conn    atomic.Pointer[daemon.Conn] // for subscription changes over the wire
	channel atomic.Int32
	// estimated and initial plan cost from the latest Assigned frame.
	estCost, initCost atomic.Uint64

	// Owned by the session goroutine until the barrier has released the
	// driver.
	seen     int
	lat      []uint32
	captured []multicast.Message
}

// quietSession is a session of a workload that swaps subscriptions. A
// replan moves sessions between channels, and netclient keeps its
// sequence high-water mark per channel, so a session returning to a
// channel it has been on sees a gap that is not one and asks for a full
// refresh, which would turn every cycle's delta publish into a full one.
// The closed loop accounts for every frame, so no frame is ever missing
// here; the request is dropped and stays visible as netclient.refreshes.
type quietSession struct{ *daemon.Conn }

func (quietSession) Refresh() error { return nil }

func newNetBench(spec workloadSpec, opts options) *netBench {
	sz := spec.Full
	if opts.smoke {
		sz = spec.Smoke
	}
	return &netBench{spec: spec, sz: sz, opts: opts, bar: newBarrier(),
		rng:       rand.New(rand.NewSource(opts.seed*7919 + 1)),
		clientCat: metrics.NewCatalog(0),
		pending:   make(map[uint64]int)}
}

func (b *netBench) counts() *tally { return &b.tally }

// uniformPoints draws n tuple positions uniformly over the database, from
// a stream of their own derived from the workload seed. Tuples are
// uniform rather than clustered: whether a few data clusters happen to
// fall on query clusters would decide a seed's answer sizes, and with
// them every cost and time.
func uniformPoints(cfg workload.Config, n int, stream int64) []geom.Point {
	cfg.CF, cfg.Seed = 0, cfg.Seed+stream<<32
	return workload.MustNewGenerator(cfg).Points(n)
}

// uniformRelation builds the clustered workloads' relation.
func uniformRelation(cfg workload.Config, tuples int, payload []byte) (*relation.Relation, error) {
	rel, err := relation.New(cfg.DB, 64, 64)
	if err != nil {
		return nil, err
	}
	for _, p := range uniformPoints(cfg, tuples, 1) {
		rel.Insert(p, payload)
	}
	return rel, nil
}

// cell is session i's disjoint unit cell in the unclustered workloads.
func cell(i int) geom.Rect {
	x := float64(i)
	return geom.R(x+0.05, 0.05, x+0.95, 0.95)
}

func (b *netBench) setup() error {
	sz := b.sz
	b.payload = make([]byte, sz.PayloadBytes)
	for i := range b.payload {
		b.payload[i] = 't'
	}
	var qs []query.Query
	if b.spec.Clustered {
		cfg := workload.DefaultConfig()
		cfg.SF, cfg.DupF, cfg.Seed = b.spec.SF, b.spec.DupF, b.opts.seed
		gen, err := workload.NewGenerator(cfg)
		if err != nil {
			return err
		}
		b.gen = gen
		qs = gen.Queries(sz.Sessions * sz.QueriesPerClient)
		if b.rel, err = uniformRelation(cfg, sz.Tuples, b.payload); err != nil {
			return err
		}
		b.points = uniformPoints(cfg, 1<<16, 2)
	} else {
		b.rel = relation.MustNew(geom.R(0, 0, float64(sz.Sessions), 1), 64, 1)
		for i := 0; i < sz.Sessions; i++ {
			qs = append(qs, query.Range(query.ID(i+1), cell(i)))
			b.points = append(b.points, geom.Pt(float64(i)+0.5, 0.5))
		}
		for _, p := range b.points[:sz.Tuples] {
			b.rel.Insert(p, b.payload)
		}
	}
	if sz.Deletes > 0 {
		for id := uint64(1); id <= b.rel.MaxID(); id++ {
			b.live = append(b.live, id)
		}
	}
	b.queries = len(qs)

	d, err := daemon.New(b.rel, sz.Channels, server.Config{
		Model:    b.spec.Model,
		Seed:     1,
		Sharding: b.spec.Sharding,
	})
	if err != nil {
		return err
	}
	b.d, b.cat = d, d.Metrics()
	// Lockstep load: a full ring makes the publisher wait instead of
	// evicting, so no delivery is ever lost to the closed loop.
	d.SlowPolicy = multicast.Block
	d.SubscriberBuffer = 2*len(qs)/sz.Channels + 64
	d.WriteTimeout = cycleTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.ln = ln
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = d.Serve(context.Background(), ln) // ends when close() shuts the daemon down
	}()

	addrs := []string{ln.Addr().String()}
	if sz.Relays > 0 {
		if addrs, err = b.startRelays(addrs[0]); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	for i := 0; i < sz.Sessions; i++ {
		s := &netSession{id: i + 1, queries: slices.Clone(qs[i*sz.QueriesPerClient : (i+1)*sz.QueriesPerClient]),
			lat: make([]uint32, 0, maxLatencySamples)}
		s.channel.Store(-1)
		nc, err := netclient.New(netclient.Config{
			Addr:       addrs[i%len(addrs)],
			ClientID:   s.id,
			Queries:    s.queries,
			MinBackoff: 50 * time.Millisecond,
			MaxBackoff: 2 * time.Second,
			JitterSeed: int64(s.id),
			Dial: func(addr string, id int) (netclient.Session, error) {
				c, err := daemon.Dial(addr, id)
				if err != nil {
					return nil, err
				}
				s.conn.Store(c)
				if sz.Swaps > 0 {
					return quietSession{c}, nil
				}
				return c, nil
			},
			OnEvent: func(ev daemon.Event) { b.onEvent(s, ev) },
		})
		if err != nil {
			return err
		}
		nc.Extractor().SetMetrics(b.clientCat.ClientKeptTuples, b.clientCat.ClientFilteredMessages)
		s.nc = nc
		b.sessions = append(b.sessions, s)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			_ = nc.Run(ctx) // ends with ctx; a reconnect shows in Stats and fails the run
		}()
	}
	if err := b.awaitSubscriptions(b.queries); err != nil {
		return err
	}

	// Bootstrap: plan, bind, publish. The first delta publish ships full
	// answers and establishes the watermark later deltas (and their
	// removal notices) are relative to, as a qsubd -delta deployment does.
	b.chanMsgs = make([]uint64, sz.Channels)
	b.perChannel = make([]uint64, sz.Channels)
	rep, err := d.RunCycle(true)
	if err != nil {
		return err
	}
	frames, err := b.settle(rep, true)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	b.fullCost = b.realizedCost(rep, frames)
	b.fullPlan = math.Float64frombits(b.sessions[0].estCost.Load())
	for k := 0; k < sz.Warmup; k++ {
		if _, err := b.cycle(0, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (b *netBench) startRelays(upstream string) ([]string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	b.relayCancel = cancel
	var addrs []string
	for i := 0; i < b.sz.Relays; i++ {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rl, err := relay.New(relay.Config{
			Upstream:         upstream,
			RelayID:          1<<30 + i,
			SubscriberBuffer: 2*b.sz.Sessions*b.sz.QueriesPerClient/b.sz.Channels + 64,
			WriteTimeout:     cycleTimeout,
			MinBackoff:       25 * time.Millisecond,
			MaxBackoff:       time.Second,
			JitterSeed:       int64(i + 1),
		})
		if err != nil {
			rln.Close()
			return nil, err
		}
		b.relays = append(b.relays, rl)
		addrs = append(addrs, rln.Addr().String())
		b.relayWG.Add(1)
		go func() {
			defer b.relayWG.Done()
			_ = rl.Run(ctx, rln) // ends with ctx; a lost feed shows as relay.reconnects
		}()
	}
	return addrs, poll("relay feeds", func() bool {
		for _, rl := range b.relays {
			if !rl.Status().Relay.Connected {
				return false
			}
		}
		return true
	})
}

// poll waits for a set-up or control-plane condition.
func poll(what string, cond func() bool) error {
	deadline := time.Now().Add(cycleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for " + what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func (b *netBench) awaitSubscriptions(n int) error {
	return poll(fmt.Sprintf("%d subscriptions", n), func() bool {
		return b.d.Server().SubscriptionCount() == n
	})
}

func (b *netBench) onEvent(s *netSession, ev daemon.Event) {
	switch {
	case ev.Assigned != nil:
		s.channel.Store(int32(ev.Assigned.Channel))
		s.estCost.Store(math.Float64bits(ev.Assigned.EstimatedCost))
		s.initCost.Store(math.Float64bits(ev.Assigned.InitialCost))
		b.assigns.Add(1)
	case ev.Answer != nil:
		if b.measuring.Load() {
			s.seen++
			if s.seen%b.sz.LatencyStride == 0 && len(s.lat) < cap(s.lat) {
				s.lat = append(s.lat, latencySample(ev.Answer.PublishedUnixNano))
			}
		} else if b.capturing.Load() {
			s.captured = append(s.captured, cloneMessage(*ev.Answer))
		}
		b.bar.arrive()
	}
}

// Counter vector indices: everything the per-cycle averages and the
// ledger cross-checks read, snapshotted together.
const (
	cEncodes = iota
	cDeliveries
	cDropped
	cEvictions
	cFramesWritten
	cFlushes
	cBytes
	cMessages
	cPayloadBytes
	cIrrelevant
	cSessionsEvicted
	cRelayIngest
	cRelayWritten
	cRelayBytes
	cRelayReconnects
	cKept
	cFiltered
	cFrames // frames the driver expected, and the barrier confirmed
	numCounters
)

func (b *netBench) counters() []uint64 {
	c := make([]uint64, numCounters)
	m := b.cat
	c[cEncodes] = m.FanoutEncodes.Load()
	c[cDeliveries] = m.FanoutDeliveries.Load()
	c[cDropped] = m.FanoutDropped.Load()
	c[cEvictions] = m.FanoutEvictions.Load()
	c[cFramesWritten] = m.FanoutFramesWritten.Load()
	c[cFlushes] = m.FanoutFlushes.Load()
	c[cBytes] = m.FanoutBytes.Load()
	c[cMessages] = m.PublishMessages.Load()
	c[cPayloadBytes] = m.PublishBytes.Load()
	c[cIrrelevant] = m.IrrelevantTuples.Load()
	c[cSessionsEvicted] = m.SessionsEvicted.Load()
	for _, rl := range b.relays {
		rm := rl.Metrics()
		c[cRelayIngest] += rm.RelayFrames.Load()
		c[cRelayWritten] += rm.FanoutFramesWritten.Load()
		c[cRelayBytes] += rm.FanoutBytes.Load()
		c[cRelayReconnects] += rm.RelayReconnects.Load()
		c[cSessionsEvicted] += rm.SessionsEvicted.Load()
		c[cDropped] += rm.FanoutDropped.Load()
	}
	c[cKept] = b.clientCat.ClientKeptTuples.Load()
	c[cFiltered] = b.clientCat.ClientFilteredMessages.Load()
	c[cFrames] = b.want
	return c
}

// snapshot reads the counters at a segment boundary. Every frame has
// been extracted by then, but a writer counts a frame an instant after
// the socket write that delivered it, so the writers drain first.
func (b *netBench) snapshot() []uint64 {
	if err := poll("writer counters", b.drained); err != nil {
		b.fail(1, "%v", err)
	}
	return b.counters()
}

func (b *netBench) resume() {
	b.begin(b.snapshot())
	b.measuring.Store(true)
}

// pause closes a measured segment and cross-checks it: every frame owed
// was written exactly once, by the tier that owns the sessions.
func (b *netBench) pause() {
	b.measuring.Store(false)
	seg := b.end(b.snapshot())
	if seg[cEncodes] != seg[cMessages] {
		b.fail(1, "encoded %d frames for %d messages", seg[cEncodes], seg[cMessages])
	}
	if len(b.relays) == 0 {
		if seg[cFramesWritten] != seg[cFrames] {
			b.fail(1, "daemon wrote %d frames, clients were owed %d", seg[cFramesWritten], seg[cFrames])
		}
		return
	}
	feed := seg[cMessages] * uint64(len(b.relays))
	if seg[cFramesWritten] != feed || seg[cRelayIngest] != feed {
		b.fail(1, "root wrote %d and relays ingested %d frames, want %d (messages x relays)",
			seg[cFramesWritten], seg[cRelayIngest], feed)
	}
	if seg[cRelayWritten] != seg[cFrames] {
		b.fail(1, "relays wrote %d frames, clients were owed %d", seg[cRelayWritten], seg[cFrames])
	}
}

// drained reports whether every writer has counted what it delivered.
func (b *netBench) drained() bool {
	if b.cat.FanoutFramesWritten.Load() != b.cat.FanoutDeliveries.Load() {
		return false
	}
	for _, rl := range b.relays {
		m := rl.Metrics()
		if m.FanoutFramesWritten.Load() != m.FanoutDeliveries.Load() {
			return false
		}
	}
	return true
}

// change applies one cycle's database and subscription changes.
func (b *netBench) change() error {
	for i := 0; i < b.sz.Inserts; i++ {
		id := b.rel.Insert(b.points[b.nextPt], b.payload)
		b.nextPt = (b.nextPt + 1) % len(b.points)
		if b.sz.Deletes > 0 {
			b.live = append(b.live, id)
		}
	}
	for i := 0; i < b.sz.Deletes; i++ {
		j := b.rng.Intn(len(b.live))
		b.rel.Delete(b.live[j])
		b.live[j] = b.live[len(b.live)-1]
		b.live = b.live[:len(b.live)-1]
	}
	if b.sz.Swaps > 0 {
		return b.swap()
	}
	return nil
}

// swap replaces Swaps subscriptions: the owning sessions send
// Unsubscribe and Subscribe frames on their own connections, as a real
// client changing its mind would. Unsubscribes settle before the
// subscribes go out so the registry count identifies both moments.
func (b *netBench) swap() error {
	type victim struct {
		s    *netSession
		slot int
	}
	victims := make([]victim, 0, b.sz.Swaps)
	for len(victims) < b.sz.Swaps {
		s := b.sessions[b.rng.Intn(len(b.sessions))]
		v := victim{s, b.rng.Intn(len(s.queries))}
		if slices.Contains(victims, v) {
			continue
		}
		victims = append(victims, v)
		old := s.queries[v.slot]
		s.nc.Extractor().RemoveQuery(old.ID)
		if err := s.conn.Load().Unsubscribe(old.ID); err != nil {
			return err
		}
	}
	if err := b.awaitSubscriptions(b.queries - len(victims)); err != nil {
		return err
	}
	for _, v := range victims {
		if len(b.spare) == 0 {
			b.spare = b.gen.Queries(1024)
		}
		q := b.spare[0]
		b.spare = b.spare[1:]
		v.s.queries[v.slot] = q
		v.s.nc.Extractor().AddQuery(q)
		if err := v.s.conn.Load().Subscribe(q); err != nil {
			return err
		}
	}
	return b.awaitSubscriptions(b.queries)
}

// settle waits until every frame of the RunCycle that just returned has
// been extracted, and checks that exactly those frames were. A session
// on channel ch receives every message published on ch, so the cycle
// owes Σ messages(ch) × sessions(ch) frames; the message counts are the
// daemon's own per-channel counters, final once RunCycle has returned.
func (b *netBench) settle(rep server.Report, replanned bool) (uint64, error) {
	if replanned {
		// Every session is told its channel before its first frame of the
		// new plan; wait until all have processed that.
		b.assignsSeen += uint64(len(b.sessions))
		b.replans++
		if err := poll("channel assignments", func() bool { return b.assigns.Load() >= b.assignsSeen }); err != nil {
			return 0, err
		}
		clear(b.perChannel)
		for _, s := range b.sessions {
			ch := s.channel.Load()
			if ch < 0 || int(ch) >= len(b.perChannel) {
				return 0, fmt.Errorf("session %d assigned invalid channel %d", s.id, ch)
			}
			b.perChannel[ch]++
		}
	}
	if got := b.d.Replans(); got != b.replans {
		return 0, fmt.Errorf("daemon has replanned %d times, the workload accounts for %d", got, b.replans)
	}
	frames, messages := owedFrames(b.cat, b.chanMsgs, b.perChannel)
	b.want += frames
	b.attempted += frames
	if err := b.bar.await(b.want); err != nil {
		b.fail(b.want-b.bar.extracted.Load(), "%v", err)
		return frames, err
	}
	if got := b.bar.extracted.Load(); got != b.want {
		b.fail(got-b.want, "%d frames extracted, %d expected", got, b.want)
	}
	// Encode-once: the publish marshalled each message exactly once.
	encodes := b.cat.FanoutEncodes.Load()
	if encodes-b.encodes != messages || messages != uint64(rep.Messages) {
		b.fail(1, "%d encodes and %d channel messages for %d published messages", encodes-b.encodes, messages, rep.Messages)
	}
	b.encodes = encodes
	return frames, nil
}

func (b *netBench) cycle(ordinal int, tr *tracer) (cycleSample, error) {
	t0 := time.Now()
	if err := b.change(); err != nil {
		return cycleSample{}, err
	}
	t1 := time.Now()
	rep, err := b.d.RunCycle(true)
	if err != nil {
		return cycleSample{}, err
	}
	t2 := time.Now()
	frames, err := b.settle(rep, b.sz.Swaps > 0)
	if err != nil {
		return cycleSample{}, err
	}
	t3 := time.Now()
	s := cycleSample{wall: t3.Sub(t0), frames: frames, cost: b.realizedCost(rep, frames)}
	if tr != nil {
		root := tr.add(0, ordinal, "cycle", t0, t3)
		tr.add(root, ordinal, "apply_change", t0, t1)
		st := stageSample{cycle: ordinal, t1: t1, t2: t2, t3: t3, runCycleWallMs: ms(t2.Sub(t1))}
		st.runID = tr.add(root, ordinal, "run_cycle", t1, t2)
		st.awaitID = tr.add(root, ordinal, "await_extract", t2, t3)
		recs := b.d.RecentCycles()
		b.pending[recs[len(recs)-1].Cycle] = len(b.stages)
		b.stages = append(b.stages, st)
		b.harvest(tr, false)
		b.maxDepth = max(b.maxDepth, b.cat.SessionMaxQueueDepth.Load())
		b.maxSeqLag = max(b.maxSeqLag, b.cat.SessionMaxSeqLag.Load())
	}
	return s, nil
}

// realizedCost prices the publish that settle just accounted for.
func (b *netBench) realizedCost(rep server.Report, frames uint64) float64 {
	irr := b.cat.IrrelevantTuples.Load()
	cost := realizedCost(b.spec.Model, rep, frames, irr-b.irrelevant, relation.Tuple{Payload: b.payload}.Size())
	b.irrelevant = irr
	return cost
}

// harvest completes stage samples from the daemon's cycle ledger. The
// write stage is stamped by a finalizer goroutine shortly after the last
// frame is handed to the kernel, so a record is usually final one cycle
// after its own; wait makes the last ones final.
func (b *netBench) harvest(tr *tracer, wait bool) {
	for tries := 0; ; tries++ {
		for _, rec := range b.d.RecentCycles() {
			i, ok := b.pending[rec.Cycle]
			if !ok || rec.WritePending {
				continue
			}
			delete(b.pending, rec.Cycle)
			st := &b.stages[i]
			st.rec = rec
			sec := func(s float64) time.Duration { return time.Duration(s * 1e9) }
			pubStart := st.t2.Add(-sec(rec.EncodeSeconds + rec.FanoutSeconds))
			tr.add(st.runID, st.cycle, "plan", st.t1, st.t1.Add(sec(rec.PlanSeconds)))
			tr.add(st.runID, st.cycle, "encode", pubStart, pubStart.Add(sec(rec.EncodeSeconds)))
			tr.add(st.runID, st.cycle, "handoff", pubStart.Add(sec(rec.EncodeSeconds)), st.t2)
			writeEnd := st.t2.Add(sec(rec.WriteSeconds))
			if writeEnd.After(st.t3) {
				writeEnd = st.t3 // the finalizer polls; the clients had every frame by t3
			}
			tr.add(st.runID, st.cycle, "write", st.t2, writeEnd)
			tr.add(st.awaitID, st.cycle, "drain", writeEnd, st.t3)
		}
		if !wait || len(b.pending) == 0 || tries > 500 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *netBench) capture(ordinal int) error {
	b.since = b.rel.MaxID()
	for _, s := range b.sessions {
		s.captured = nil
	}
	b.capturing.Store(true)
	defer b.capturing.Store(false)
	if _, err := b.cycle(ordinal, nil); err != nil {
		return err
	}
	b.deltaBatch = len(b.rel.InsertedSince(b.since))
	b.captured = make([][]multicast.Message, b.sz.Channels)
	b.captureOf = make([]*netSession, b.sz.Channels)
	for _, s := range b.sessions {
		if ch := s.channel.Load(); b.captureOf[ch] == nil {
			b.captureOf[ch], b.captured[ch] = s, s.captured
		}
	}
	return nil
}

// verify compares every checked client's extracted answer per query with
// rel.Search(q.Region), by tuple id. The final round and every round of
// a workload that swaps subscriptions first run an untimed full publish:
// a subscription added between delta cycles only becomes complete then.
func (b *netBench) verify(ordinal int, final bool, tr *tracer) error {
	start := time.Now()
	if final || b.sz.Swaps > 0 {
		rep, err := b.d.RunCycle(false)
		if err != nil {
			return err
		}
		frames, err := b.settle(rep, false)
		if err != nil {
			return err
		}
		b.realizedCost(rep, frames) // keeps the irrelevant-tuple watermark current
	}
	for i, s := range b.sessions {
		if !final && i%10 != b.period%10 {
			continue
		}
		for _, q := range s.queries {
			b.attempted++
			got := s.nc.Extractor().Answer(q.ID)
			if !sameIDs(got, b.rel.Search(q.Region)) {
				b.fail(1, "client %d query %d: extracted answer differs from direct evaluation", s.id, q.ID)
			}
		}
	}
	b.period++
	if final {
		for _, s := range b.sessions {
			st := s.nc.Stats()
			if st.Connects != 1 {
				b.fail(1, "session %d: %d connects", s.id, st.Connects)
			}
			// Without channel moves (see quietSession) a gap is a lost frame.
			if gaps := s.nc.Extractor().Stats().GapsDetected; b.sz.Swaps == 0 && gaps+st.GapRefreshes > 0 {
				b.fail(1, "session %d: %d sequence gaps, %d refreshes", s.id, gaps, st.GapRefreshes)
			}
		}
		if n := b.cat.SessionsEvicted.Load() + b.cat.FanoutEvictions.Load() + b.cat.FanoutDropped.Load(); n > 0 {
			b.fail(n, "%d evictions or drops at the daemon", n)
		}
	}
	tr.add(0, ordinal, "verify", start, time.Now())
	if tr != nil && final {
		b.harvest(tr, true)
	}
	return nil
}

// sameIDs reports whether got (sorted by id) holds exactly want's tuples.
func sameIDs(got, want []relation.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make([]uint64, len(want))
	for i, t := range want {
		ids[i] = t.ID
	}
	slices.Sort(ids)
	for i, t := range got {
		if t.ID != ids[i] {
			return false
		}
	}
	return true
}

func (b *netBench) latencies() []uint32 {
	var all []uint32
	for _, s := range b.sessions {
		all = append(all, s.lat...)
	}
	slices.Sort(all)
	return all
}

func (b *netBench) close() {
	if b.cancel != nil {
		b.cancel()
		b.wg.Wait()
	}
	if b.relayCancel != nil {
		b.relayCancel()
		b.relayWG.Wait()
	}
	if b.d != nil {
		b.d.Shutdown()
	}
	if b.ln != nil {
		b.ln.Close()
		<-b.served
	}
}

// layers reports the per-layer metrics of a traced run: counter totals
// over the measured cycles, the ledger's stage times, then the replays.
func (b *netBench) layers(cycles int, tr *tracer, out map[string]float64) error {
	n := float64(cycles)
	per := func(i int) float64 { return float64(b.acc[i]) / n }
	out["server.messages_per_cycle"] = per(cMessages)
	out["server.payload_bytes_per_cycle"] = per(cPayloadBytes)
	out["server.irrelevant_tuples_per_cycle"] = per(cIrrelevant)
	out["wire.encodes_per_cycle"] = per(cEncodes)
	out["multicast.deliveries_per_cycle"] = per(cDeliveries)
	out["multicast.dropped"] = float64(b.acc[cDropped])
	out["multicast.evictions"] = float64(b.acc[cEvictions])
	out["daemon.bytes_written_per_cycle"] = per(cBytes)
	out["daemon.sessions_evicted"] = float64(b.acc[cSessionsEvicted])
	out["daemon.max_queue_depth"] = float64(b.maxDepth)
	out["daemon.max_seq_lag"] = float64(b.maxSeqLag)
	framesPerFlush := 1
	if b.acc[cFlushes] > 0 {
		out["daemon.frames_per_flush"] = float64(b.acc[cFramesWritten]) / float64(b.acc[cFlushes])
		framesPerFlush = int(b.acc[cFramesWritten] / b.acc[cFlushes])
	}
	if len(b.relays) > 0 {
		out["relay.ingest_frames_per_cycle"] = per(cRelayIngest)
		out["relay.frames_written_per_cycle"] = per(cRelayWritten)
		out["relay.bytes_per_cycle"] = per(cRelayBytes)
		out["relay.root_egress_bytes_per_cycle"] = per(cBytes)
		out["relay.reconnects"] = float64(b.acc[cRelayReconnects])
	}
	out["client.kept_tuples_per_cycle"] = per(cKept)
	out["client.filtered_messages_per_cycle"] = per(cFiltered)
	var relevant, received, gaps, refreshes, reconnects float64
	for _, s := range b.sessions {
		cs := s.nc.Extractor().Stats()
		relevant += float64(cs.RelevantBytes)
		received += float64(cs.RelevantBytes + cs.IrrelevantBytes + cs.FilteredBytes)
		gaps += float64(cs.GapsDetected)
		ns := s.nc.Stats()
		refreshes += float64(ns.GapRefreshes + ns.ResumeRefreshes)
		reconnects += float64(ns.Connects - 1)
	}
	if received > 0 {
		out["client.useful_ratio"] = relevant / received
	}
	out["netclient.seq_gaps"], out["netclient.refreshes"], out["netclient.reconnects"] = gaps, refreshes, reconnects

	var plan, publish, rebind []float64
	var encode, handoff, write float64
	for _, st := range b.stages {
		plan = append(plan, 1e3*st.rec.PlanSeconds)
		pub := 1e3 * (st.rec.EncodeSeconds + st.rec.FanoutSeconds)
		publish = append(publish, pub)
		rebind = append(rebind, max(st.runCycleWallMs-1e3*st.rec.PlanSeconds-pub, 0))
		encode += 1e3 * st.rec.EncodeSeconds
		handoff += 1e3 * st.rec.FanoutSeconds
		write += 1e3 * st.rec.WriteSeconds
	}
	out["server.plan_ms_p50"] = median(plan)
	out["server.publish_ms_p50"] = median(publish)
	out["daemon.rebind_ms"] = median(rebind)
	out["wire.encode_ms_per_cycle"] = encode / n
	out["multicast.handoff_ms_per_cycle"] = handoff / n
	out["daemon.write_ms_per_cycle"] = write / n

	est := math.Float64frombits(b.sessions[0].estCost.Load())
	if init := math.Float64frombits(b.sessions[0].initCost.Load()); init > 0 {
		out["server.plan_cost_ratio"] = est / init
	}
	if b.fullPlan > 0 {
		out["server.cost_realized_vs_predicted"] = b.fullCost / b.fullPlan
	}
	if plans := float64(b.cat.PlansTotal.Load()); plans > 0 {
		hits, misses := float64(b.cat.MemoHits.Load()), float64(b.cat.MemoMisses.Load())
		if hits+misses > 0 {
			out["cost.memo_hit_ratio"] = hits / (hits + misses)
		}
		out["cost.memo_misses_per_plan"] = misses / plans
		out["relation.estimate_probes_per_plan"] = misses/plans + float64(b.queries)
		out["core.heap_pops_per_plan"] = float64(b.cat.SolverHeapPops.Load()) / plans
		out["core.merges_per_plan"] = float64(b.cat.SolverMerges.Load()) / plans
	}

	// Replays, on the captured cycle and the current subscriptions.
	r := newReplayer(tr)
	defer r.close()
	r.replayWire(b.captured, out)
	buffer := 2*b.queries/b.sz.Channels + 64
	if err := r.replayMulticast(b.captured, b.perChannel, buffer, out); err != nil {
		return err
	}
	if err := r.replayWritev(b.captured, b.perChannel, framesPerFlush, out); err != nil {
		return err
	}
	extractors := make([]*client.Client, b.sz.Channels)
	for ch, s := range b.captureOf {
		if s != nil {
			extractors[ch] = client.New(s.id, s.queries...)
		}
	}
	r.replayClient(b.captured, extractors, out)

	var qs []query.Query
	var clients [][]int
	for _, s := range b.sessions {
		idx := make([]int, len(s.queries))
		for i, q := range s.queries {
			idx[i] = len(qs)
			qs = append(qs, q)
		}
		clients = append(clients, idx)
	}
	prob := &shard.Problem{Queries: qs, Clients: clients, Channels: b.sz.Channels, Model: b.spec.Model,
		Procedure: query.BoundingRect{}, Estimator: relation.Exact{Rel: b.rel}, Algorithm: core.PairMerge{},
		Config: b.spec.Sharding}
	if err := r.replayShard(prob, out); err != nil {
		return err
	}
	res, err := shard.Plan(prob)
	if err != nil {
		return err
	}
	out["relation.delta_batch_tuples"] = float64(b.deltaBatch)
	r.replayRelation(b.rel, planRegions(qs, res.ChannelPlans), b.since, out)
	return nil
}
