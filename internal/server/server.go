// Package server implements the subscription server of §3.1: it accepts
// query subscriptions from clients, periodically merges them with a query
// merging algorithm (§6), allocates clients to multicast channels (§8),
// executes the merged queries against the spatial relation, and publishes
// the merged answers with extraction headers over the multicast network.
//
// The server supports the dynamic scenario of §11: subscriptions can be
// added and removed between cycles, and a continuous mode disseminates
// only the tuples inserted since the previous cycle.
package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/shard"
)

// Config selects the server's policies. Zero-value fields fall back to
// the defaults documented per field.
type Config struct {
	// Model is the cost model driving merge and allocation decisions.
	Model cost.Model
	// Procedure is the merge procedure (default query.BoundingRect).
	Procedure query.MergeProcedure
	// Algorithm is the merging algorithm (default core.PairMerge).
	Algorithm core.Algorithm
	// Estimator predicts answer sizes (default relation.Exact over the
	// server's relation).
	Estimator relation.Estimator
	// Strategy picks the channel allocation heuristic when the network
	// has more than one channel.
	Strategy chanalloc.Strategy
	// Seed drives the randomized pieces (random-init allocation); a
	// fixed Seed plans the same cycle at any GOMAXPROCS.
	Seed int64
	// Sharding selects the sharded planning pipeline (internal/shard):
	// subscription aggregation, Morton-sharded concurrent solving, and
	// traffic-weighted channel balancing. Disabled by default; with
	// Sharding.Enabled, ShardBits == 0 and Aggregate == false the
	// pipeline is bit-identical to the unsharded single-channel plan
	// (the equivalence ablation pins this).
	Sharding shard.Config
	// Metrics optionally instruments the whole stack the server drives:
	// memo hit rates, solver and allocator work, plan/publish latency,
	// per-channel traffic, realized U(Q,M) and delta batch sizes. Nil
	// runs uninstrumented; the enabled handles are allocation-free on
	// the publish path (see the AllocsPerRun pins in the tests).
	Metrics *metrics.Catalog
}

// Server owns the subscription registry and the merge/publish cycle.
type Server struct {
	rel *relation.Relation
	net *multicast.Network
	cfg Config

	mu        sync.Mutex
	subs      map[int][]query.Query // client id -> subscriptions
	delivered uint64                // high-water tuple id for delta mode
}

// New creates a server over the given relation and network.
func New(rel *relation.Relation, net *multicast.Network, cfg Config) (*Server, error) {
	if rel == nil {
		return nil, errors.New("server: nil relation")
	}
	if net == nil {
		return nil, errors.New("server: nil network")
	}
	if cfg.Procedure == nil {
		cfg.Procedure = query.BoundingRect{}
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = core.PairMerge{}
	}
	if cfg.Estimator == nil {
		cfg.Estimator = relation.Exact{Rel: rel}
	}
	if cat := cfg.Metrics; cat != nil {
		rel.SetDeltaMetrics(cat.DeltaBatchTuples, cat.DeltaDeletions)
		net.SetMetrics(cat.FanoutDeliveries, cat.FanoutDropped, cat.FanoutEvictions, cat.FanoutEncodes)
	}
	return &Server{
		rel:  rel,
		net:  net,
		cfg:  cfg,
		subs: make(map[int][]query.Query),
	}, nil
}

// Relation returns the server's relation (for loading data).
func (s *Server) Relation() *relation.Relation { return s.rel }

// ShardingEnabled reports whether plans run through the sharded
// pipeline — the cycle ledger labels plan stages with it.
func (s *Server) ShardingEnabled() bool { return s.cfg.Sharding.Enabled }

// Subscribe registers queries for a client. Query ids must be unique per
// client. A region with a NaN coordinate refuses the whole call before
// anything is registered: math.Min and Max carry a NaN into every bounding
// rectangle it is merged with, so one such region would corrupt the merged
// answers of other clients. ±Inf is accepted.
func (s *Server) Subscribe(clientID int, qs ...query.Query) error {
	for _, q := range qs {
		if hasNaN(q.Region) {
			return fmt.Errorf("server: query %d of client %d has a NaN coordinate", q.ID, clientID)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range qs {
		for _, existing := range s.subs[clientID] {
			if existing.ID == q.ID {
				return fmt.Errorf("server: client %d already subscribes query %d", clientID, q.ID)
			}
		}
		s.subs[clientID] = append(s.subs[clientID], q)
	}
	return nil
}

// hasNaN reports whether any coordinate of the region is NaN: a
// rectangle's edges, a polygon's vertices, a union's rectangles; another
// region type through its bounding rectangle.
func hasNaN(region geom.Region) bool {
	nan := func(r geom.Rect) bool {
		return math.IsNaN(r.MinX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxX) || math.IsNaN(r.MaxY)
	}
	switch r := region.(type) {
	case geom.Polygon:
		for _, p := range r {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) {
				return true
			}
		}
		return false
	case geom.Union:
		return slices.ContainsFunc(r, nan)
	}
	return nan(region.BoundingRect())
}

// SubscriptionCount returns the number of registered (client, query)
// subscriptions. It is a cheap readiness probe — load harnesses that
// register thousands of subscriptions over the network poll it instead
// of re-planning.
func (s *Server) SubscriptionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, qs := range s.subs {
		n += len(qs)
	}
	return n
}

// Unsubscribe removes one query subscription; it reports whether the
// subscription existed.
func (s *Server) Unsubscribe(clientID int, id query.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs := s.subs[clientID]
	for i, q := range qs {
		if q.ID == id {
			s.subs[clientID] = append(qs[:i], qs[i+1:]...)
			if len(s.subs[clientID]) == 0 {
				delete(s.subs, clientID)
			}
			return true
		}
	}
	return false
}

// Release removes every subscription of a client; it reports how many
// there were.
func (s *Server) Release(clientID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.subs[clientID])
	delete(s.subs, clientID)
	return n
}

// Cycle is one planned dissemination round: the merged plans per channel
// and the client-to-channel map. A Cycle stays valid until subscriptions
// change.
type Cycle struct {
	// Queries is the flattened (client, query) list the plan indexes
	// into.
	Queries []query.Query
	// Owners[i] is the client owning Queries[i].
	Owners []int
	// ClientChannel maps each client id to its assigned channel.
	ClientChannel map[int]int
	// ChannelPlans[ch] partitions that channel's query indices into
	// merged sets.
	ChannelPlans []core.Plan
	// EstimatedCost is the model cost of the whole cycle.
	EstimatedCost float64
	// InitialCost is the model cost without any merging, for savings
	// reports.
	InitialCost float64
	// Info says how Plan or Replan obtained this cycle.
	Info PlanInfo

	// What the next Replan inherits: the sharded planner's result (nil
	// on the unsharded path), and the subscription changes absorbed since
	// the last full plan (the quarter rule's count).
	shard *shard.Result
	churn int

	// msgPlans is the publish schedule: one entry per transmitted merged
	// set, carrying everything about the message that is invariant
	// across publish rounds (a cycle is planned once and published many
	// times). Built once, lazily, under msgOnce.
	msgOnce  sync.Once
	msgPlans []msgPlan

	// regions indexes the msgPlans' merged regions (in msgPlans order)
	// for event matching: built once, by the first publish round that
	// matches against it, under regOnce. publishes counts the cycle's
	// publish rounds, which picks the insert path (see publish).
	regOnce   sync.Once
	regions   *relation.RegionIndex
	publishes atomic.Uint64
}

// Plan modes reported in PlanInfo.Mode.
const (
	ModeFull        = "full"        // allocation and every merge solved from the subscriptions
	ModeIncremental = "incremental" // previous allocation inherited, solved only around the churn
)

// PlanInfo records, on the cycle it produced, what a Plan or Replan did.
// (A Replan that found nothing changed returns the previous cycle
// itself, with the info of the plan that built it.)
type PlanInfo struct {
	Mode string
	// ShardsSolved and ShardsReused count the sharded planner's
	// (channel, shard) tasks solved this time and taken over from the
	// previous cycle; both are 0 on the unsharded path.
	ShardsSolved, ShardsReused int
}

// msgPlan precomputes the cycle-invariant parts of one published message:
// the merged region the set's queries execute as and the §3.1 header.
// Publish rounds only fill in the tuples.
type msgPlan struct {
	ch     int
	set    []int
	region geom.Region
	header []multicast.HeaderEntry
}

// publishPlans builds (once) and returns the cycle's publish schedule, so
// each set's merge and buildHeader's group-and-sort work happen exactly
// once per cycle.
func (cy *Cycle) publishPlans(proc query.MergeProcedure) []msgPlan {
	cy.msgOnce.Do(func() { cy.buildMsgPlans(proc) })
	return cy.msgPlans
}

// regionIndex builds (once) and returns the index over the cycle's merged
// regions, laid over the relation's bounds.
func (cy *Cycle) regionIndex(plans []msgPlan, bounds geom.Rect) *relation.RegionIndex {
	cy.regOnce.Do(func() {
		regions := make([]geom.Region, len(plans))
		for i := range plans {
			regions[i] = plans[i].region
		}
		cy.regions = relation.NewRegionIndex(bounds, regions)
	})
	return cy.regions
}

func (cy *Cycle) buildMsgPlans(proc query.MergeProcedure) {
	var members []query.Query
	for ch, plan := range cy.ChannelPlans {
		for _, set := range plan {
			members = members[:0]
			for _, qi := range set {
				members = append(members, cy.Queries[qi])
			}
			cy.msgPlans = append(cy.msgPlans, msgPlan{
				ch:     ch,
				set:    set,
				region: proc.Merge(members),
				header: buildHeader(cy, set),
			})
		}
	}
}

// snapshot is the subscription registry flattened in the planners'
// canonical order: clients ascending, each client's subscriptions in
// registration order.
type snapshot struct {
	clients        []int
	qs             []query.Query
	owners         []int
	clientQueryIdx [][]int // per client (as in clients), its indices into qs
}

// flatten copies the registry out in canonical order; an empty registry
// is an empty snapshot.
func (s *Server) flatten() snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap snapshot
	for id := range s.subs {
		snap.clients = append(snap.clients, id)
	}
	sort.Ints(snap.clients)
	snap.clientQueryIdx = make([][]int, len(snap.clients))
	for ci, id := range snap.clients {
		for _, q := range s.subs[id] {
			snap.clientQueryIdx[ci] = append(snap.clientQueryIdx[ci], len(snap.qs))
			snap.qs = append(snap.qs, q)
			snap.owners = append(snap.owners, id)
		}
	}
	return snap
}

// snapshot is flatten for the planners, which refuse an empty registry.
func (s *Server) snapshot() (snapshot, error) {
	snap := s.flatten()
	if len(snap.qs) == 0 {
		return snap, errors.New("server: no subscriptions to plan")
	}
	return snap, nil
}

// Subscriptions lists every registered subscription with its owning
// client, in the order Plan indexes them (clients ascending, each
// client's queries in registration order). It plans nothing.
func (s *Server) Subscriptions() (qs []query.Query, owners []int) {
	snap := s.flatten()
	return snap.qs, snap.owners
}

// finishPlan ends every Plan and Replan: it materializes the publish
// schedule (regions and headers: invariant across publish rounds) and
// records what the plan did on the cycle and the catalog.
func (s *Server) finishPlan(start time.Time, cy *Cycle, info PlanInfo) *Cycle {
	cy.publishPlans(s.cfg.Procedure)
	cy.Info = info
	if cat := s.cfg.Metrics; cat != nil {
		cat.PlansTotal.Inc()
		if info.Mode == ModeIncremental {
			cat.PlansIncremental.Inc()
		}
		cat.PlanShardsSolved.Add(uint64(info.ShardsSolved))
		cat.PlanShardsReused.Add(uint64(info.ShardsReused))
		cat.PlanSeconds.Observe(time.Since(start).Seconds())
	}
	return cy
}

// solverMetrics returns the catalog's solver instruments, nil when the
// server runs uninstrumented.
func (s *Server) solverMetrics() *core.SolverMetrics {
	cat := s.cfg.Metrics
	if cat == nil {
		return nil
	}
	return &core.SolverMetrics{
		HeapPops:        cat.SolverHeapPops,
		Merges:          cat.SolverMerges,
		Restarts:        cat.SolverRestarts,
		Components:      cat.SolverComponents,
		ConvergenceCost: cat.SolverConvergenceCost,
	}
}

// Plan snapshots the current subscriptions, runs channel allocation and
// query merging, and returns the cycle. Clients should subscribe to their
// assigned channels before Publish is called.
func (s *Server) Plan() (*Cycle, error) {
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	return s.plan(snap)
}

// plan is the full plan of a snapshot: nothing is inherited.
func (s *Server) plan(snap snapshot) (*Cycle, error) {
	if s.cfg.Sharding.Enabled {
		return s.planSharded(snap, nil, 0)
	}
	clients, qs := snap.clients, snap.qs
	start := time.Now()
	cat := s.cfg.Metrics

	inst := core.NewGeomInstance(s.cfg.Model, qs, s.cfg.Procedure, s.cfg.Estimator)
	inst.Metrics = s.solverMetrics()
	// Merged sizes are asked for again and again within one plan: the
	// channel-allocation hill climb re-merges overlapping client subsets
	// dozens of times, and the parallel solvers probe the same unions
	// from several goroutines. The table or memo behind them is built
	// fresh per Plan call because the estimator reflects the current
	// relation contents. With more than one channel and client, channel
	// allocation solves groups under its per-channel models.
	allocate := s.net.Channels() > 1 && len(clients) > 1
	kmax := 0.0
	if allocate {
		kmax = chanalloc.MaxChannelKM(s.cfg.Model, len(clients))
	}
	if cat != nil {
		inst.CacheSizes(nil, kmax, cat.MemoHits, cat.MemoMisses)
	} else {
		inst.CacheSizes(nil, kmax, nil, nil)
	}
	cy := &Cycle{
		Queries:       qs,
		Owners:        snap.owners,
		ClientChannel: make(map[int]int, len(clients)),
		ChannelPlans:  make([]core.Plan, s.net.Channels()),
		InitialCost:   inst.InitialCost(),
	}

	if !allocate {
		for _, id := range clients {
			cy.ClientChannel[id] = 0
		}
		plan := s.cfg.Algorithm.Solve(inst)
		cy.ChannelPlans[0] = plan
		cy.EstimatedCost = inst.Cost(plan)
		return s.finishPlan(start, cy, PlanInfo{Mode: ModeFull}), nil
	}

	prob := &chanalloc.Problem{
		Inst:     inst,
		Clients:  snap.clientQueryIdx,
		Channels: s.net.Channels(),
		Merger:   s.cfg.Algorithm,
	}
	if cat != nil {
		prob.Metrics = &chanalloc.AllocMetrics{
			Restarts:         cat.AllocRestarts,
			GroupCacheHits:   cat.AllocGroupCacheHits,
			GroupCacheMisses: cat.AllocGroupCacheMisses,
		}
	}
	alloc, total, err := chanalloc.Heuristic(prob, s.cfg.Strategy, s.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("server: channel allocation: %w", err)
	}
	for ci, ch := range alloc {
		cy.ClientChannel[clients[ci]] = ch
	}
	for ch, plan := range chanalloc.Plans(prob, alloc) {
		cy.ChannelPlans[ch] = plan
	}
	cy.EstimatedCost = total
	// The no-merging baseline must be charged under the same channel
	// allocation (including per-listener filtering), or the comparison
	// would mix §4 and §7 cost models.
	noMerge := &chanalloc.Problem{
		Inst:     inst,
		Clients:  snap.clientQueryIdx,
		Channels: s.net.Channels(),
		Merger:   core.NoMerge{},
	}
	cy.InitialCost = chanalloc.Cost(noMerge, alloc)
	return s.finishPlan(start, cy, PlanInfo{Mode: ModeFull}), nil
}

// planSharded plans a snapshot through the sharded pipeline:
// aggregation, Morton-sharded concurrent solving and traffic-weighted
// channel balancing, all inside internal/shard. The resulting cycle has
// the same invariants as the global path (every query in exactly one
// plan set, on its owner's channel), so publish-plan materialization
// applies unchanged. With prev set it is an incremental replan (see
// shard.Plan) that has absorbed churn subscription changes since the last
// full plan.
func (s *Server) planSharded(snap snapshot, prev *Cycle, churn int) (*Cycle, error) {
	start := time.Now()
	prob := &shard.Problem{
		Queries:   snap.qs,
		Clients:   snap.clientQueryIdx,
		ClientIDs: snap.clients,
		Channels:  s.net.Channels(),
		Model:     s.cfg.Model,
		Procedure: s.cfg.Procedure,
		Estimator: s.cfg.Estimator,
		Algorithm: s.cfg.Algorithm,
		Metrics:   s.solverMetrics(),
		Config:    s.cfg.Sharding,
	}
	if prev != nil {
		prob.Prev = prev.shard
	}
	if cat := s.cfg.Metrics; cat != nil {
		prob.MemoHits = cat.MemoHits
		prob.MemoMisses = cat.MemoMisses
	}
	res, err := shard.Plan(prob)
	if err != nil {
		return nil, fmt.Errorf("server: sharded planning: %w", err)
	}
	cy := &Cycle{
		Queries:       snap.qs,
		Owners:        snap.owners,
		ClientChannel: make(map[int]int, len(snap.clients)),
		ChannelPlans:  res.ChannelPlans,
		EstimatedCost: res.EstimatedCost,
		InitialCost:   res.InitialCost,
		shard:         res,
	}
	for ci, id := range snap.clients {
		cy.ClientChannel[id] = res.ClientChannel[ci]
	}
	// What the planner did decides the mode, not what was asked of it: it
	// ignores a previous result it cannot inherit from.
	info := PlanInfo{Mode: ModeFull, ShardsReused: res.Stats.Reused, ShardsSolved: res.Stats.Shards - res.Stats.Reused}
	if res.Stats.Incremental {
		info.Mode = ModeIncremental
		cy.churn = churn
	}
	return s.finishPlan(start, cy, info), nil
}

// Report summarizes one Publish round.
type Report struct {
	// Messages is the number of merged answers published.
	Messages int
	// PayloadBytes is the total payload volume published.
	PayloadBytes int
	// Tuples is the total number of tuples published.
	Tuples int
}

// Publish executes the cycle's merged queries against the relation and
// publishes one message per merged set on the owning channel, with the
// §3.1 header addressing each subscribed client. It advances the delta
// watermark like PublishDelta does, so a delta published next carries
// the inserts and the removal notices of the period since this publish —
// and because that delta will not look behind this publish, the full
// answers carry the removal notices of the period they close: a client
// adds a full answer to its view, it does not replace the view with it.
func (s *Server) Publish(cy *Cycle) (Report, error) {
	return s.publish(cy, s.advanceWatermark(), false)
}

// PublishDelta publishes only tuples inserted since the previous publish
// (future work §11: continuous queries as objects-per-period). With
// nothing published before it behaves like Publish; later calls ship the
// per-period delta.
func (s *Server) PublishDelta(cy *Cycle) (Report, error) {
	return s.publish(cy, s.advanceWatermark(), true)
}

// advanceWatermark moves the delta watermark to the relation's current
// high-water id — read before the round's queries execute, so a tuple
// written meanwhile is shipped again rather than lost — and returns the
// previous one.
func (s *Server) advanceWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	since := s.delivered
	s.delivered = s.rel.MaxID()
	return since
}

// pubScratch holds the per-publish-round bookkeeping slices whose
// backing arrays never escape into published messages, so they can be
// pooled across rounds. The inner results/removed slices DO escape (they
// ride inside Messages that subscribers may still be draining), so only
// the outer arrays are reused, and put nils every entry: a round starts
// from nil entries, which the region index's matchers append to.
type pubScratch struct {
	results [][]relation.Tuple
	removed [][]uint64
	// msgs stages the round's messages so they publish as channel runs
	// via PublishBatch. The Message values hold escaping pointers, but
	// ring pushes and channel sends copy the value, so the outer array is
	// reusable once its entries are zeroed on put.
	msgs []multicast.Message
}

var pubScratchPool = sync.Pool{New: func() any { return new(pubScratch) }}

func getPubScratch(n int) *pubScratch {
	sc := pubScratchPool.Get().(*pubScratch)
	if cap(sc.results) < n {
		sc.results = make([][]relation.Tuple, n)
		sc.removed = make([][]uint64, n)
		sc.msgs = make([]multicast.Message, n)
	}
	sc.results = sc.results[:n]
	sc.removed = sc.removed[:n]
	sc.msgs = sc.msgs[:n]
	return sc
}

func putPubScratch(sc *pubScratch) {
	for i := range sc.results {
		sc.results[i] = nil
		sc.removed[i] = nil
		sc.msgs[i] = multicast.Message{}
	}
	pubScratchPool.Put(sc)
}

// publish fills every message of the cycle's precomputed publish
// schedule and publishes them in deterministic channel/set order with
// their cycle-scoped headers.
//
// A full publish (or the first delta, which has no watermark yet) runs
// every merged query against the relation, concurrently across merged
// sets with one worker per CPU. A delta publish ships only the tuples
// inserted since the watermark, by one of two equivalent paths that the
// equivalence tests pin bit-identical to a full search filtered by the
// watermark, and to a brute-force match of every tuple against every
// merged region:
//
//   - From the cycle's second publish round on, the round is event
//     matching: each inserted tuple, in id order, probes the cycle's
//     region index (relation.RegionIndex, built once per cycle) and is
//     appended to every message whose region contains it, so each
//     message's tuples stay in id order.
//   - A cycle's first round probes a per-round relation.DeltaIndex grid
//     over the inserted batch from each merged region instead: a plan
//     that is published once (replanned every cycle) does not pay for an
//     index it would use once.
//
// Tuples deleted since the watermark are snapshotted once per round,
// delta or full, and matched, in deletion order, against the region
// index.
func (s *Server) publish(cy *Cycle, sinceID uint64, delta bool) (Report, error) {
	cat := s.cfg.Metrics
	pubStart := time.Now()
	plans := cy.publishPlans(s.cfg.Procedure)
	reused := cy.publishes.Add(1) > 1
	useDelta := delta && sinceID > 0
	var di *relation.DeltaIndex
	var deleted []relation.Tuple
	if useDelta {
		di = s.rel.Delta(sinceID)
		deleted = di.Deleted()
	} else if sinceID > 0 {
		deleted = s.rel.DeletedSince(sinceID)
	}

	sc := getPubScratch(len(plans))
	defer putPubScratch(sc)
	results, removed := sc.results, sc.removed

	if useDelta && reused {
		cy.regionIndex(plans, s.rel.Bounds()).MatchAppend(di.Inserted(), results)
	} else {
		s.searchAll(plans, di, results)
	}
	if len(deleted) > 0 {
		cy.regionIndex(plans, s.rel.Bounds()).MatchIDsAppend(deleted, removed)
	}

	var rep Report
	var irr uint64
	// Per-channel traffic accumulates locally and flushes one Add per
	// channel run: msgPlans are channel-ordered (buildMsgPlans iterates
	// ChannelPlans by index), so the flush fires once per channel, not
	// once per message.
	var chMsgs, chTuples, chBytes uint64
	curCh := -1
	flushChannel := func() {
		if curCh >= 0 {
			cat.ChannelMessages.At(curCh).Add(chMsgs)
			cat.ChannelTuples.At(curCh).Add(chTuples)
			cat.ChannelBytes.At(curCh).Add(chBytes)
		}
		chMsgs, chTuples, chBytes = 0, 0, 0
	}
	// Stage the round's messages, then publish each channel's run with
	// one PublishBatch call: msgPlans are channel-ordered, so a run is a
	// contiguous slice, and batching lets the network amortize sequence
	// assignment and per-subscriber locking across the whole run instead
	// of paying them per message.
	msgs := sc.msgs
	for idx := range plans {
		msgs[idx] = multicast.Message{
			Channel: plans[idx].ch,
			Tuples:  results[idx],
			Header:  plans[idx].header,
			Delta:   delta,
			Removed: removed[idx],
		}
	}
	for start := 0; start < len(msgs); {
		end := start + 1
		for end < len(msgs) && msgs[end].Channel == msgs[start].Channel {
			end++
		}
		if err := s.net.PublishBatch(msgs[start:end]); err != nil {
			return rep, fmt.Errorf("server: publish on channel %d: %w", msgs[start].Channel, err)
		}
		start = end
	}
	for idx := range plans {
		mp := &plans[idx]
		pb := msgs[idx].PayloadBytes()
		rep.Messages++
		rep.PayloadBytes += pb
		rep.Tuples += len(results[idx])
		if cat != nil {
			if mp.ch != curCh {
				flushChannel()
				curCh = mp.ch
			}
			chMsgs++
			chTuples += uint64(len(results[idx]))
			chBytes += uint64(pb)
			if len(results[idx]) > 0 {
				irr += irrelevantTuples(cy, mp, results[idx])
			}
		}
	}
	if cat != nil {
		flushChannel()
	}
	if cat != nil {
		if delta {
			cat.PublishDeltas.Inc()
		}
		cat.PublishMessages.Add(uint64(rep.Messages))
		cat.PublishTuples.Add(uint64(rep.Tuples))
		cat.PublishBytes.Add(uint64(rep.PayloadBytes))
		cat.IrrelevantTuples.Add(irr)
		cat.PublishSeconds.Observe(time.Since(pubStart).Seconds())
	}
	return rep, nil
}

// searchAll sets results[i] to the answer of plans[i]'s merged region:
// over the relation, or over the inserted batch when di is set. The
// searches run concurrently across merged sets with one worker per CPU.
func (s *Server) searchAll(plans []msgPlan, di *relation.DeltaIndex, results [][]relation.Tuple) {
	workers := min(runtime.GOMAXPROCS(0), len(plans))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arena: query results append into one buffer per
			// worker — each job's result is a capped sub-slice, so a
			// growing append leaves earlier results intact on their old
			// backing arrays. The arena is NOT pooled across rounds:
			// published messages alias it until subscribers drain them.
			var tupleBuf []relation.Tuple
			for idx := range next {
				region := plans[idx].region
				start := len(tupleBuf)
				if di != nil {
					tupleBuf = di.SearchAppend(region, tupleBuf)
				} else {
					tupleBuf = s.rel.SearchAppend(region, tupleBuf)
				}
				results[idx] = tupleBuf[start:len(tupleBuf):len(tupleBuf)]
			}
		}()
	}
	for idx := range plans {
		next <- idx
	}
	close(next)
	wg.Wait()
}

// irrelevantTuples is one message's realized U(Q,M) contribution: each
// query of the merged set is charged the tuples outside its own region
// that it must extract away client-side. This is the runtime counterpart
// of the model's irrelevant-data term; it runs only when metrics are
// enabled and allocates nothing (plain slice walks and interface calls).
func irrelevantTuples(cy *Cycle, mp *msgPlan, tuples []relation.Tuple) uint64 {
	var irr uint64
	for _, qi := range mp.set {
		r := cy.Queries[qi].Region
		if r == nil {
			continue
		}
		for _, t := range tuples {
			if !r.Contains(t.Pos) {
				irr++
			}
		}
	}
	return irr
}

// buildHeader groups the merged set's queries by owning client, producing
// the (client, extractor-query-ids) entries of §3.1.
func buildHeader(cy *Cycle, set []int) []multicast.HeaderEntry {
	byClient := map[int][]query.ID{}
	for _, qi := range set {
		owner := cy.Owners[qi]
		byClient[owner] = append(byClient[owner], cy.Queries[qi].ID)
	}
	clients := make([]int, 0, len(byClient))
	for id := range byClient {
		clients = append(clients, id)
	}
	sort.Ints(clients)
	header := make([]multicast.HeaderEntry, len(clients))
	for i, id := range clients {
		header[i] = multicast.HeaderEntry{ClientID: id, QueryIDs: byClient[id]}
	}
	return header
}

// ValidateCycle checks a cycle's structural invariants: every query
// appears in exactly one merged set (the partition of §4), channels are
// in range, and owners are consistent. The tests run it after every plan;
// callers embedding the server can use it as a tripwire.
func ValidateCycle(cy *Cycle, channels int) error {
	if cy == nil {
		return errors.New("server: nil cycle")
	}
	if len(cy.Owners) != len(cy.Queries) {
		return fmt.Errorf("server: %d owners for %d queries", len(cy.Owners), len(cy.Queries))
	}
	if len(cy.ChannelPlans) != channels {
		return fmt.Errorf("server: %d channel plans for %d channels", len(cy.ChannelPlans), channels)
	}
	seen := make([]int, len(cy.Queries))
	for ch, plan := range cy.ChannelPlans {
		for _, set := range plan {
			for _, q := range set {
				if q < 0 || q >= len(cy.Queries) {
					return fmt.Errorf("server: channel %d references unknown query %d", ch, q)
				}
				seen[q]++
			}
		}
	}
	for q, n := range seen {
		if n != 1 {
			return fmt.Errorf("server: query %d appears in %d merged sets", q, n)
		}
	}
	for id, ch := range cy.ClientChannel {
		if ch < 0 || ch >= channels {
			return fmt.Errorf("server: client %d assigned to invalid channel %d", id, ch)
		}
	}
	return nil
}
