package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"qsub/internal/chanalloc"
	"qsub/internal/client"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/server"
	"qsub/internal/workload"
)

// planBench is the plan-paper workload: no sockets, no daemon. Every
// cycle replaces the whole subscription population, plans it with the
// paper's algorithms as qsubd configures them (exact full-table
// PairMerge, BestOfBoth allocation, exact estimator), publishes full
// answers to in-process batch subscribers and verifies what they
// extracted.
type planBench struct {
	spec workloadSpec
	sz   sizes
	opts options
	tally

	gen  *workload.Generator
	rel  *relation.Relation
	mnet *multicast.Network
	srv  *server.Server
	cat  *metrics.Catalog
	bar  *barrier

	members    []member // the current population
	nextID     int      // client ids are never reused across populations
	chanMsgs   []uint64
	want       uint64
	irrelevant uint64
	tupleBytes int
	lat        []uint32

	segments
	planMs    []float64
	publishMs []float64
	costRatio []float64 // EstimatedCost / InitialCost per plan
	realized  []float64 // realized cost / EstimatedCost per cycle
	captured  [][]multicast.Message
	captureOf []*member
	lastCycle *server.Cycle
}

// member is one client of a population with its extractor.
type member struct {
	id      int
	queries []query.Query
	ext     *client.Client
	channel int
}

func newPlanBench(spec workloadSpec, opts options) *planBench {
	sz := spec.Full
	if opts.smoke {
		sz = spec.Smoke
	}
	return &planBench{spec: spec, sz: sz, opts: opts, bar: newBarrier()}
}

func (b *planBench) counts() *tally { return &b.tally }

func (b *planBench) setup() error {
	cfg := workload.DefaultConfig()
	cfg.SF, cfg.Seed = b.spec.SF, b.opts.seed
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return err
	}
	b.gen = gen
	payload := make([]byte, b.sz.PayloadBytes)
	b.tupleBytes = relation.Tuple{Payload: payload}.Size()
	if b.rel, err = uniformRelation(cfg, b.sz.Tuples, payload); err != nil {
		return err
	}
	if b.mnet, err = multicast.NewNetwork(b.sz.Channels); err != nil {
		return err
	}
	b.mnet.SetClock(func() int64 { return time.Now().UnixNano() })
	b.cat = metrics.NewCatalog(b.sz.Channels)
	b.srv, err = server.New(b.rel, b.mnet, server.Config{
		Model:    b.spec.Model,
		Strategy: chanalloc.BestOfBoth,
		Seed:     1,
		Metrics:  b.cat,
	})
	if err != nil {
		return err
	}
	b.chanMsgs = make([]uint64, b.sz.Channels)
	for k := 0; k < b.sz.Warmup; k++ {
		if _, err := b.cycle(0, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// population generates the next set of clients and their queries.
func (b *planBench) population() []member {
	qs := b.gen.Queries(b.sz.Sessions * b.sz.QueriesPerClient)
	out := make([]member, b.sz.Sessions)
	for i := range out {
		b.nextID++
		mine := qs[i*b.sz.QueriesPerClient : (i+1)*b.sz.QueriesPerClient]
		out[i] = member{id: b.nextID, queries: mine, ext: client.New(b.nextID, mine...)}
	}
	return out
}

func (b *planBench) cycle(ordinal int, tr *tracer) (cycleSample, error) {
	next := b.population() // input generation is not the system's work
	t0 := time.Now()
	for _, m := range b.members {
		for _, q := range m.queries {
			b.srv.Unsubscribe(m.id, q.ID)
		}
	}
	for _, m := range next {
		if err := b.srv.Subscribe(m.id, m.queries...); err != nil {
			return cycleSample{}, err
		}
	}
	b.members = next
	t1 := time.Now()
	cy, err := b.srv.Plan()
	if err != nil {
		return cycleSample{}, err
	}
	t2 := time.Now()

	// Attach every client to its assigned channel, as a session would on
	// receiving Assigned.
	perChannel := make([]uint64, b.sz.Channels)
	subs := make([]*multicast.Subscription, len(next))
	lats := make([][]uint32, len(next))
	var wg sync.WaitGroup
	sample := ordinal > 0
	for i := range next {
		m := &next[i]
		m.channel = cy.ClientChannel[m.id]
		perChannel[m.channel]++
		sub, err := b.mnet.SubscribeBatch(m.channel, len(cy.Queries)+1, multicast.Block)
		if err != nil {
			return cycleSample{}, err
		}
		subs[i] = sub
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch, ok := sub.NextBatch()
				for _, msg := range batch {
					m.ext.Handle(msg)
					if sample {
						lats[i] = append(lats[i], latencySample(msg.PublishedUnixNano))
					}
					b.bar.arrive()
				}
				if !ok {
					return
				}
			}
		}()
	}
	t3 := time.Now()
	rep, err := b.srv.Publish(cy)
	if err != nil {
		return cycleSample{}, err
	}
	t4 := time.Now()
	frames, messages := owedFrames(b.cat, b.chanMsgs, perChannel)
	b.want += frames
	b.attempted += frames
	awaitErr := b.bar.await(b.want)
	t5 := time.Now()
	for _, sub := range subs {
		sub.Cancel()
	}
	wg.Wait()
	if awaitErr != nil {
		b.fail(b.want-b.bar.extracted.Load(), "%v", awaitErr)
		return cycleSample{}, awaitErr
	}
	if got := b.bar.extracted.Load(); got != b.want || messages != uint64(rep.Messages) {
		b.fail(1, "%d frames extracted of %d expected; %d channel messages for %d published", got, b.want, messages, rep.Messages)
	}
	for _, l := range lats {
		b.lat = append(b.lat, l...)
	}

	irr := b.cat.IrrelevantTuples.Load()
	realized := realizedCost(b.spec.Model, rep, frames, irr-b.irrelevant, b.tupleBytes)
	b.irrelevant = irr
	if sample {
		b.planMs = append(b.planMs, ms(t2.Sub(t1)))
		b.publishMs = append(b.publishMs, ms(t4.Sub(t3)))
		b.costRatio = append(b.costRatio, cy.EstimatedCost/cy.InitialCost)
		b.realized = append(b.realized, realized/cy.EstimatedCost)
	}
	b.lastCycle = cy

	root := tr.add(0, ordinal, "cycle", t0, t5)
	tr.add(root, ordinal, "apply_change", t0, t1)
	run := tr.add(root, ordinal, "run_cycle", t1, t4)
	tr.add(run, ordinal, "plan", t1, t2)
	tr.add(run, ordinal, "handoff", t3, t4)
	await := tr.add(root, ordinal, "await_extract", t4, t5)
	tr.add(await, ordinal, "drain", t4, t5)
	return cycleSample{wall: t5.Sub(t0), frames: frames, cost: realized}, nil
}

// capture republishes the last plan to one collecting subscriber per
// channel: the same messages the population just received.
func (b *planBench) capture(int) error {
	cy := b.lastCycle
	b.captured = make([][]multicast.Message, b.sz.Channels)
	b.captureOf = make([]*member, b.sz.Channels)
	subs := make([]*multicast.Subscription, b.sz.Channels)
	for ch := range subs {
		sub, err := b.mnet.SubscribeBatch(ch, len(cy.Queries)+1, multicast.Block)
		if err != nil {
			return err
		}
		subs[ch] = sub
	}
	if _, err := b.srv.Publish(cy); err != nil {
		return err
	}
	for ch, sub := range subs {
		sub.Cancel()
		for {
			batch, ok := sub.NextBatch()
			b.captured[ch] = append(b.captured[ch], batch...)
			if !ok {
				break
			}
		}
		b.chanMsgs[ch] = b.cat.ChannelMessages.At(ch).Load()
	}
	b.irrelevant = b.cat.IrrelevantTuples.Load()
	for i := range b.members {
		if m := &b.members[i]; b.captureOf[m.channel] == nil {
			b.captureOf[m.channel] = m
		}
	}
	return nil
}

// verify checks every client of the current population: the plan is new
// each cycle, so each cycle's answers are checked (VerifyEvery is 1).
func (b *planBench) verify(ordinal int, _ bool, tr *tracer) error {
	start := time.Now()
	for _, m := range b.members {
		for _, q := range m.queries {
			b.attempted++
			if !sameIDs(m.ext.Answer(q.ID), b.rel.Search(q.Region)) {
				b.fail(1, "client %d query %d: extracted answer differs from direct evaluation", m.id, q.ID)
			}
		}
		if gaps := m.ext.Stats().GapsDetected; gaps > 0 {
			b.fail(1, "client %d: %d sequence gaps", m.id, gaps)
		}
	}
	tr.add(0, ordinal, "verify", start, time.Now())
	return nil
}

// Counter vector indices for plan-paper.
const (
	pMessages = iota
	pPayloadBytes
	pIrrelevant
	pDeliveries
	pDropped
	numPlanCounters
)

func (b *planBench) counters() []uint64 {
	st := b.mnet.Stats()
	c := make([]uint64, numPlanCounters)
	c[pMessages] = b.cat.PublishMessages.Load()
	c[pPayloadBytes] = b.cat.PublishBytes.Load()
	c[pIrrelevant] = b.cat.IrrelevantTuples.Load()
	c[pDeliveries] = st.Deliveries
	c[pDropped] = st.Dropped + st.OverflowDrops + st.SlowEvictions
	return c
}

func (b *planBench) resume() { b.begin(b.counters()) }

func (b *planBench) pause() { b.end(b.counters()) }

func (b *planBench) latencies() []uint32 {
	slices.Sort(b.lat)
	return b.lat
}

func (b *planBench) layers(cycles int, tr *tracer, out map[string]float64) error {
	n := float64(cycles)
	out["server.plan_ms_p50"] = median(b.planMs)
	out["server.publish_ms_p50"] = median(b.publishMs)
	out["server.plan_cost_ratio"] = mean(b.costRatio)
	out["server.cost_realized_vs_predicted"] = mean(b.realized)
	out["server.messages_per_cycle"] = float64(b.acc[pMessages]) / n
	out["server.payload_bytes_per_cycle"] = float64(b.acc[pPayloadBytes]) / n
	out["server.irrelevant_tuples_per_cycle"] = float64(b.acc[pIrrelevant]) / n
	out["multicast.deliveries_per_cycle"] = float64(b.acc[pDeliveries]) / n
	out["multicast.dropped"] = float64(b.acc[pDropped])
	var handoff float64
	for _, p := range b.publishMs {
		handoff += p
	}
	out["multicast.handoff_ms_per_cycle"] = handoff / n

	plans := float64(b.cat.PlansTotal.Load())
	hits, misses := float64(b.cat.MemoHits.Load()), float64(b.cat.MemoMisses.Load())
	out["cost.memo_hit_ratio"] = hits / (hits + misses)
	out["cost.memo_misses_per_plan"] = misses / plans
	queries := b.sz.Sessions * b.sz.QueriesPerClient
	out["relation.estimate_probes_per_plan"] = misses/plans + float64(queries)
	out["core.heap_pops_per_plan"] = float64(b.cat.SolverHeapPops.Load()) / plans
	out["core.merges_per_plan"] = float64(b.cat.SolverMerges.Load()) / plans
	out["chanalloc.restarts_per_plan"] = float64(b.cat.AllocRestarts.Load()) / plans
	if gh, gm := float64(b.cat.AllocGroupCacheHits.Load()), float64(b.cat.AllocGroupCacheMisses.Load()); gh+gm > 0 {
		out["chanalloc.group_cache_hit_ratio"] = gh / (gh + gm)
	}
	var kept, relevant, received float64
	for _, m := range b.members {
		cs := m.ext.Stats()
		relevant += float64(cs.RelevantBytes)
		received += float64(cs.RelevantBytes + cs.IrrelevantBytes + cs.FilteredBytes)
		for _, q := range m.queries {
			kept += float64(m.ext.QueryStatsFor(q.ID).Tuples)
		}
	}
	out["client.kept_tuples_per_cycle"] = kept // every population lives for one cycle
	if received > 0 {
		out["client.useful_ratio"] = relevant / received
	}

	// Replays, on the last population and the messages it received.
	r := newReplayer(tr)
	defer r.close()
	cy := b.lastCycle
	perChannel := make([]uint64, b.sz.Channels)
	for _, m := range b.members {
		perChannel[m.channel]++
	}
	r.replayWire(b.captured, out)
	if err := r.replayMulticast(b.captured, perChannel, len(cy.Queries)+1, out); err != nil {
		return err
	}
	extractors := make([]*client.Client, b.sz.Channels)
	for ch, m := range b.captureOf {
		if m != nil {
			extractors[ch] = client.New(m.id, m.queries...)
		}
	}
	r.replayClient(b.captured, extractors, out)
	r.replayRelation(b.rel, planRegions(cy.Queries, cy.ChannelPlans), 0, out)

	est := relation.Exact{Rel: b.rel}
	fresh := func() *core.Instance {
		inst := core.NewGeomInstance(b.spec.Model, cy.Queries, query.BoundingRect{}, est)
		inst.Sizer = cost.NewMemo(inst.Sizer, inst.N)
		return inst
	}
	out["core.pairmerge_ms"] = ms(r.once("core.pairmerge", func() { core.PairMerge{}.Solve(fresh()) }))
	clients := make([][]int, 0, len(b.members))
	owner := make(map[int]int, len(b.members))
	for i, id := range cy.Owners {
		ci, ok := owner[id]
		if !ok {
			ci = len(clients)
			owner[id] = ci
			clients = append(clients, nil)
		}
		clients[ci] = append(clients[ci], i)
	}
	var allocErr error
	out["chanalloc.heuristic_ms"] = ms(r.once("chanalloc.heuristic", func() {
		prob := &chanalloc.Problem{Inst: fresh(), Clients: clients, Channels: b.sz.Channels, Merger: core.PairMerge{}}
		_, _, allocErr = chanalloc.Heuristic(prob, chanalloc.BestOfBoth, 1)
	}))
	return allocErr
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (b *planBench) close() {
	if b.mnet != nil {
		b.mnet.Close()
	}
}
