package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/morton"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// Config selects the sharded planning pipeline's policies. The zero
// value disables the pipeline entirely (the server falls back to the
// global solve).
type Config struct {
	// Enabled turns the pipeline on. With Enabled, ShardBits == 0 and
	// Aggregate == false, the pipeline reduces to the global solve and
	// produces bit-identical plans (the unsharded-equivalence ablation).
	Enabled bool
	// ShardBits is the number of Morton-code prefix bits used as the
	// shard key: representatives are partitioned into up to 2^ShardBits
	// Z-order cells solved independently. 0 means one shard.
	ShardBits int
	// Aggregate enables the subscription-aggregation pass: covered and
	// near-duplicate subscriptions collapse into representatives before
	// solving. Publish addressing stays exact either way (stitched sets
	// are expanded back to original query indices).
	Aggregate bool
	// AggSlack is the near-duplicate quantization pitch as a fraction
	// of the workload extent per axis; 0 means the default of 1/128.
	AggSlack float64
}

// maxShardBits bounds the shard count at 2^20; beyond that the per-shard
// bookkeeping dominates any solving.
const maxShardBits = 20

// shards returns the shard count the configuration asks for.
func (c Config) shards() int {
	b := c.ShardBits
	if b < 0 {
		b = 0
	}
	if b > maxShardBits {
		b = maxShardBits
	}
	return 1 << uint(b)
}

// Problem is one sharded planning instance: the flattened query list,
// the client → query-index partition, and the policies the server's
// global path would have used for the same cycle.
type Problem struct {
	// Queries is the flattened subscription list; plans index into it.
	Queries []query.Query
	// Clients partitions the query indices by owning client.
	Clients [][]int
	// Channels is the multicast channel count (≥ 1).
	Channels int
	// Model is the cost model; K6 is charged per channel listener on
	// multi-channel problems exactly as chanalloc.ChannelCost does.
	Model cost.Model
	// Procedure is the merge procedure (default query.BoundingRect).
	Procedure query.MergeProcedure
	// Estimator predicts answer sizes; required.
	Estimator relation.Estimator
	// Algorithm is the per-shard merging algorithm (default
	// core.PairMerge).
	Algorithm core.Algorithm
	// Budget optionally bounds solver work across all shards (anytime
	// mode): every per-shard solve shares it, so a deadline caps the
	// whole pipeline, not each shard. Nil means unlimited.
	Budget *core.Budget
	// Metrics optionally instruments the per-shard solver runs.
	Metrics *core.SolverMetrics
	// MemoHits/MemoMisses optionally instrument the per-shard memoized
	// sizers; either may be nil.
	MemoHits, MemoMisses *metrics.Counter

	// ClientIDs[i] is an identity for Clients[i] that is stable from one
	// plan to the next. Prev requires it. A plan without it records no
	// client, so a replan from its result places every client anew.
	ClientIDs []int
	// Prev, when set, makes this an incremental replan after
	// subscription churn: the channel allocation of Prev is inherited
	// and only the (channel, shard) tasks whose input changed are solved
	// again (see Plan). Prev must come from a Plan under the same
	// policies (Config, Procedure, Algorithm); a different channel or
	// shard count is planned in full.
	Prev *Result

	Config Config
}

// Stats summarizes what the pipeline did, for reports and tests.
type Stats struct {
	// Queries is the original subscription count.
	Queries int
	// Reps is the representative count after aggregation (== Queries
	// when aggregation is off).
	Reps int
	// Collapsed counts subscriptions absorbed into a representative.
	Collapsed int
	// Shards is the number of non-empty (channel, shard) tasks.
	Shards int
	// Incremental reports that the plan inherited from Problem.Prev. It
	// is false without Prev and with a Prev of another channel or shard
	// count, which is ignored: the allocation is new and every task solved.
	Incremental bool
	// Reused counts the tasks an incremental replan took over from
	// Problem.Prev unsolved; the other Shards − Reused were solved.
	Reused int
	// MaxShardReps is the largest shard's representative count — the
	// effective n of the most expensive per-shard solve.
	MaxShardReps int
}

// Result is the stitched global plan: per-channel merge plans over
// original query indices plus the client → channel assignment, in the
// exact shape the server needs to build a Cycle.
type Result struct {
	// ClientChannel[i] is the channel of Problem.Clients[i].
	ClientChannel []int
	// ChannelPlans[ch] partitions that channel's query indices into
	// merged sets (original query indices — aggregation is already
	// expanded).
	ChannelPlans []core.Plan
	// EstimatedCost is the model cost of the stitched plan. Under
	// aggregation it is evaluated at representative granularity.
	EstimatedCost float64
	// InitialCost is the no-merging cost under the same channel
	// assignment.
	InitialCost float64
	// TransmitBytes is the predicted payload volume of one full publish:
	// the estimated size of every stitched set's merged region.
	TransmitBytes float64
	Stats         Stats

	// What a later replan inherits (Problem.Prev): the solved tasks it
	// may reuse, the allocation, and the singleton sizes already probed.
	tasks         map[taskKey]*solved
	shardChannel  []int
	clientChannel map[int]int
	sized         map[geom.Rect]float64
}

// taskKey names one task across plans: a channel and a Z-order cell.
type taskKey struct{ ch, cell int }

// task is one independent per-shard solve: a channel, that channel's
// cost model (K6-adjusted), the shard's representative queries, and the
// original query indices each representative stands for.
type task struct {
	key        taskKey
	queries    []query.Query
	memberSets [][]int
	model      cost.Model
	// rects are the representatives' regions when every one is a
	// rectangle, nil otherwise; with model they are the task's input
	// signature.
	rects []geom.Rect
	// sizes, on a task to be solved, are the representatives' single
	// sizes this plan has already probed, NaN where it has not.
	sizes []float64
	// out is the task's outcome, solved now or taken over from the
	// previous result; plan is out.plan expanded to original query
	// indices through memberSets.
	out  *solved
	plan core.Plan
}

// solved is the outcome of one task in task-local indices, so it stays
// valid for any later task with the same signature whatever the query
// numbering: the plan, its model cost and its predicted transmit bytes.
// The plan and the cost follow from the signature alone. The bytes are
// sized from the members' own regions, which the signature determines
// only while every representative is its one member or the merge
// procedure is the bounding rectangle; a reuse outside that sizes its
// sets again (see Plan).
type solved struct {
	model cost.Model
	rects []geom.Rect
	plan  core.Plan
	cost  float64
	bytes float64
}

// matches reports whether t poses exactly the problem s answered. Tasks
// with a non-rectangular region have no signature and never match.
func (s *solved) matches(t *task) bool {
	return s != nil && t.rects != nil && s.model == t.model && slices.Equal(s.rects, t.rects)
}

// Plan runs the pipeline: aggregate → shard → solve → stitch. It is
// deterministic for a fixed problem at any GOMAXPROCS: shards are
// solved independently on per-shard memoized sizers and stitched in
// shard-index order.
//
// With Problem.Prev set it replans incrementally. Clients known to Prev
// keep their channel and a joined client follows the majority of its
// weight under Prev's shard → channel map; aggregation and sharding are
// rebuilt from the current subscriptions; a task whose signature (its
// K6-adjusted model and its representative rectangles, in order) equals
// that of Prev's task for the same channel and cell takes over that
// task's plan, cost and transmit bytes, with the members expanded from
// the current indices, and only the remaining tasks are solved (the
// transmit bytes are sized again where the members, not the signature,
// decide them: aggregation under a procedure other than the bounding
// rectangle). A reused task and a singleton size Prev already probed
// keep the estimates they were computed under; a caller whose estimates
// have drifted plans without Prev. Tasks with a non-rectangular region
// and solves cut short by an exhausted Budget are never reused, and a
// Prev of another channel or shard count is ignored
// (Stats.Incremental).
func Plan(p *Problem) (*Result, error) { return plan(p, solveShard) }

// plan is Plan with the per-task solve as a parameter, so a test can pin
// solveShard against a reference solve.
func plan(p *Problem, solve func(*task, query.MergeProcedure, core.Algorithm, *Problem)) (*Result, error) {
	n := len(p.Queries)
	if n == 0 {
		return nil, errors.New("shard: no queries to plan")
	}
	if p.Estimator == nil {
		return nil, errors.New("shard: nil estimator")
	}
	if len(p.Clients) == 0 {
		return nil, errors.New("shard: no clients")
	}
	if (p.ClientIDs != nil || p.Prev != nil) && len(p.ClientIDs) != len(p.Clients) {
		return nil, fmt.Errorf("shard: %d client ids for %d clients", len(p.ClientIDs), len(p.Clients))
	}
	for c, qs := range p.Clients {
		for _, q := range qs {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("shard: client %d subscribes to unknown query %d", c, q)
			}
		}
	}
	channels := p.Channels
	if channels < 1 {
		channels = 1
	}
	proc := p.Procedure
	if proc == nil {
		proc = query.BoundingRect{}
	}
	algo := p.Algorithm
	if algo == nil {
		algo = core.PairMerge{}
	}
	// See solved: whether a reused task's transmit bytes still hold.
	_, boundsOnly := proc.(query.BoundingRect)
	bytesFollowRects := boundsOnly || !p.Config.Aggregate
	numShards := p.Config.shards()
	prev := p.Prev
	if prev != nil && (len(prev.ChannelPlans) != channels || channels > 1 && len(prev.shardChannel) != numShards) {
		prev = nil
	}
	incremental := prev != nil
	if !incremental {
		prev = &Result{} // nothing to inherit: every lookup below misses
	}

	// Workload geometry shared by every stage: query bounding rects and
	// the global bounds normalizing every Morton code, so shard cells
	// are identical across channels.
	rects := make([]geom.Rect, n)
	bounds := geom.EmptyRect()
	for i, q := range p.Queries {
		rects[i] = q.Region.BoundingRect()
		bounds = bounds.Union(rects[i])
	}

	// Singleton sizes drive channel balancing and the no-merge
	// baseline; a rectangle the previous result sized is not probed
	// again. probed marks the sizes probed by this plan, the only ones a
	// task may take over: Prev's may be of another moment of the relation.
	rs, _ := p.Estimator.(relation.RectSizer)
	sizes := make([]float64, n)
	probed := make([]bool, n)
	sized := make(map[geom.Rect]float64, n)
	for i, q := range p.Queries {
		r, isRect := q.Region.(geom.Rect)
		size, known := prev.sized[r]
		switch {
		case isRect && known:
		case isRect && rs != nil:
			size, probed[i] = rs.SizeBytesRect(r), true
		default:
			size, probed[i] = p.Estimator.SizeBytes(q.Region), true
		}
		sizes[i] = size
		if isRect {
			sized[r] = size
		}
	}

	res := &Result{
		ClientChannel: make([]int, len(p.Clients)),
		ChannelPlans:  make([]core.Plan, channels),
		Stats:         Stats{Queries: n, Incremental: incremental},
		tasks:         make(map[taskKey]*solved),
		sized:         sized,
	}

	// Stage 0 — channel assignment. One channel trivially takes every
	// client. Otherwise shards are balanced across channels by traffic
	// weight (LPT) and each client follows the channels holding the
	// majority of its subscribed weight, so the per-channel solves below
	// stay client-disjoint (a client listens to exactly one channel). A
	// replan keeps the previous shard → channel map and every known
	// client's channel, so only a joined client is placed.
	listeners := make([]int, channels)
	chQIdx := make([][]int, channels)
	if channels == 1 {
		listeners[0] = len(p.Clients)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		chQIdx[0] = all
	} else {
		shardOf := make([]int, n)
		for i := range p.Queries {
			shardOf[i] = rectShard(rects[i], bounds, p.Config.ShardBits)
		}
		shardChannel := prev.shardChannel
		if shardChannel == nil {
			shardWeight := make([]float64, numShards)
			for i := range p.Queries {
				shardWeight[shardOf[i]] += sizes[i]
			}
			shardChannel = chanalloc.BalanceWeights(shardWeight, channels)
		}
		res.shardChannel = shardChannel
		res.clientChannel = make(map[int]int, len(p.Clients))
		chWeight := make([]float64, channels)
		for ci, qs := range p.Clients {
			best, kept := 0, false
			if incremental {
				best, kept = prev.clientChannel[p.ClientIDs[ci]]
			}
			if !kept {
				for ch := range chWeight {
					chWeight[ch] = 0
				}
				for _, q := range qs {
					chWeight[shardChannel[shardOf[q]]] += sizes[q]
				}
				for ch := 1; ch < channels; ch++ {
					if chWeight[ch] > chWeight[best] {
						best = ch
					}
				}
			}
			res.ClientChannel[ci] = best
			listeners[best]++
			for _, q := range qs {
				chQIdx[best] = append(chQIdx[best], q)
			}
		}
		for ci, id := range p.ClientIDs {
			res.clientChannel[id] = res.ClientChannel[ci]
		}
		for ch := range chQIdx {
			sort.Ints(chQIdx[ch])
		}
	}

	// Stages 1–2 — per-channel aggregation and sharding, flattened into
	// one task list; the tasks the previous result does not answer go to
	// the worker pool.
	var tasks []task
	var unsolved []int
	for ch := 0; ch < channels; ch++ {
		if len(chQIdx[ch]) == 0 {
			continue
		}
		chQueries := make([]query.Query, len(chQIdx[ch]))
		for j, q := range chQIdx[ch] {
			chQueries[j] = p.Queries[q]
		}
		var agg Aggregation
		if p.Config.Aggregate {
			agg = Aggregate(chQueries, p.Config.AggSlack)
		} else {
			agg = Identity(chQueries)
		}
		// Remap member indices (positions in chQueries) back to global
		// query indices once, so stitched sets need no further mapping.
		for ri := range agg.Reps {
			for mi, m := range agg.Reps[ri].Members {
				agg.Reps[ri].Members[mi] = chQIdx[ch][m]
			}
		}
		res.Stats.Reps += len(agg.Reps)
		res.Stats.Collapsed += agg.Collapsed

		model := p.Model
		if channels > 1 {
			// Per-listener filtering charge, mirroring
			// chanalloc.ChannelCost's coupling of allocation to merging.
			model.KM += model.K6 * float64(listeners[ch])
		}

		groups, cells := shardReps(agg.Reps, bounds, p.Config.ShardBits)
		for gi, repIdx := range groups {
			t := task{
				key:        taskKey{ch, cells[gi]},
				queries:    make([]query.Query, len(repIdx)),
				memberSets: make([][]int, len(repIdx)),
				model:      model,
				rects:      make([]geom.Rect, len(repIdx)),
			}
			for j, ri := range repIdx {
				if p.Config.Aggregate {
					t.queries[j] = query.Range(0, agg.Reps[ri].Rect)
				} else {
					t.queries[j] = p.Queries[agg.Reps[ri].Members[0]]
				}
				t.memberSets[j] = agg.Reps[ri].Members
				if r, ok := t.queries[j].Region.(geom.Rect); !ok {
					t.rects = nil
				} else if t.rects != nil {
					t.rects[j] = r
				}
			}
			if old := prev.tasks[t.key]; old.matches(&t) {
				t.out, t.plan = old, expand(old.plan, t.memberSets)
				if !bytesFollowRects {
					again := *old
					again.bytes = transmitBytes(t.plan, p.Queries, proc, p.Estimator)
					t.out = &again
				}
				res.tasks[t.key] = t.out
				res.Stats.Reused++
			} else {
				// A representative standing for one query whose region it
				// is has the size stage 0 probed.
				t.sizes = make([]float64, len(repIdx))
				for j, ri := range repIdx {
					t.sizes[j] = math.NaN()
					if m := agg.Reps[ri].Members; len(m) == 1 && probed[m[0]] {
						if r, ok := p.Queries[m[0]].Region.(geom.Rect); !p.Config.Aggregate || ok && r == agg.Reps[ri].Rect {
							t.sizes[j] = sizes[m[0]]
						}
					}
				}
				unsolved = append(unsolved, len(tasks))
			}
			tasks = append(tasks, t)
			if len(repIdx) > res.Stats.MaxShardReps {
				res.Stats.MaxShardReps = len(repIdx)
			}
		}
	}
	res.Stats.Shards = len(tasks)

	// Stage 3 — solve the shards concurrently on a per-shard memoized
	// sizer. Results land in the tasks' own slots, so the stitch below is
	// deterministic at any GOMAXPROCS.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(unsolved) {
		workers = len(unsolved)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range next {
				solve(&tasks[ti], proc, algo, p)
			}
		}()
	}
	for _, ti := range unsolved {
		next <- ti
	}
	close(next)
	wg.Wait()

	// Stage 4 — stitch: concatenate shard plans per channel (task order
	// is channel-major, shard-ascending) and sum costs. A solve that ran
	// to completion on a task with a signature is kept for the next
	// replan; once the shared budget has tripped, any of this round's
	// solves may have been cut short.
	keep := !p.Budget.Exhausted()
	for _, ti := range unsolved {
		if t := &tasks[ti]; keep && t.rects != nil {
			res.tasks[t.key] = t.out
		}
	}
	for ti := range tasks {
		t := &tasks[ti]
		res.ChannelPlans[t.key.ch] = append(res.ChannelPlans[t.key.ch], t.plan...)
		res.EstimatedCost += t.out.cost
		res.TransmitBytes += t.out.bytes
	}
	if channels > 1 {
		for ch := 0; ch < channels; ch++ {
			if len(chQIdx[ch]) > 0 {
				res.EstimatedCost += p.Model.KD
			}
		}
	}

	// The no-merging baseline under the same channel assignment (the
	// savings denominator): one message per query, each charged the
	// channel's per-listener filtering, plus per-channel maintenance.
	if channels == 1 {
		for i := 0; i < n; i++ {
			res.InitialCost += p.Model.KM + p.Model.KT*sizes[i]
		}
	} else {
		for ch := 0; ch < channels; ch++ {
			if len(chQIdx[ch]) == 0 {
				continue
			}
			km := p.Model.KM + p.Model.K6*float64(listeners[ch])
			for _, q := range chQIdx[ch] {
				res.InitialCost += km + p.Model.KT*sizes[q]
			}
			res.InitialCost += p.Model.KD
		}
	}
	return res, nil
}

// solveShard runs the merging algorithm on one shard's representative
// instance (sizes cached per shard, the single sizes stage 0 probed taken
// over), expands the plan back to original query indices and predicts the
// bytes its merged regions transmit, as the server publishes them. Under
// the bounding rectangle with rectangle representatives those regions are
// the rectangles the solve has sized, so the bytes are read back from the
// instance; otherwise they are sized from the original member queries.
func solveShard(t *task, proc query.MergeProcedure, algo core.Algorithm, p *Problem) {
	inst := core.NewGeomInstance(t.model, t.queries, proc, p.Estimator)
	inst.CacheSizes(t.sizes, 0, p.MemoHits, p.MemoMisses)
	inst.Budget = p.Budget
	inst.Metrics = p.Metrics
	plan := algo.Solve(inst)
	t.plan = expand(plan, t.memberSets)
	t.out = &solved{model: t.model, rects: t.rects, plan: plan, cost: inst.Cost(plan)}
	if _, boundsOnly := proc.(query.BoundingRect); boundsOnly && t.rects != nil {
		t.out.bytes = cost.TransmitSize(inst.Sizer, plan)
	} else {
		t.out.bytes = transmitBytes(t.plan, p.Queries, proc, p.Estimator)
	}
}

// transmitBytes predicts the payload of one full publish of the plan's
// sets: the estimated size of each set's merged region.
func transmitBytes(plan core.Plan, qs []query.Query, proc query.MergeProcedure, est relation.Estimator) float64 {
	total := 0.0
	var members []query.Query
	for _, set := range plan {
		members = members[:0]
		for _, q := range set {
			members = append(members, qs[q])
		}
		total += est.SizeBytes(proc.Merge(members))
	}
	return total
}

// expand maps a task-local plan to original query indices.
func expand(plan core.Plan, memberSets [][]int) core.Plan {
	out := make(core.Plan, len(plan))
	for si, set := range plan {
		var expanded []int
		for _, local := range set {
			expanded = append(expanded, memberSets[local]...)
		}
		out[si] = expanded
	}
	return out
}

// rectShard returns the Z-order cell of a rectangle's center.
func rectShard(r geom.Rect, bounds geom.Rect, bits int) int {
	code := morton.Code2(
		morton.Normalize((r.MinX+r.MaxX)/2, bounds.MinX, bounds.MaxX),
		morton.Normalize((r.MinY+r.MaxY)/2, bounds.MinY, bounds.MaxY),
	)
	return morton.Prefix(code, 2, clampBits(bits))
}

func clampBits(b int) int {
	if b < 0 {
		return 0
	}
	if b > maxShardBits {
		return maxShardBits
	}
	return b
}

// shardReps groups representative indices by the Z-order cell of their
// rectangle centers, returning the non-empty groups and their cells in
// ascending cell order (each group's members stay in ascending rep
// order).
func shardReps(reps []Rep, bounds geom.Rect, bits int) (groups [][]int, cells []int) {
	if clampBits(bits) == 0 {
		all := make([]int, len(reps))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, []int{0}
	}
	byCell := make(map[int][]int)
	for ri := range reps {
		cell := rectShard(reps[ri].Rect, bounds, bits)
		byCell[cell] = append(byCell[cell], ri)
	}
	cells = make([]int, 0, len(byCell))
	for cell := range byCell {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	groups = make([][]int, len(cells))
	for i, cell := range cells {
		groups[i] = byCell[cell]
	}
	return groups, cells
}
