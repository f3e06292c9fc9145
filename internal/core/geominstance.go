package core

import (
	"sync"

	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/metrics"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// NewGeomInstance builds a merging instance over geographic queries: the
// size function delegates to the estimator, the merge function to the
// chosen merge procedure (Fig 5), and Overlap is estimated for rectangle
// pairs so the refined clustering bound of §6.3 is available.
//
// The merged-size path is the hot loop of every solver, so the member
// slice handed to the merge procedure comes from a pool instead of a
// fresh allocation per probe; merge procedures do not retain their
// argument. The pool also keeps the instance safe for the concurrent
// solvers (parallel DirectedSearch restarts and Clustering components).
func NewGeomInstance(model cost.Model, qs []query.Query, proc query.MergeProcedure, est relation.Estimator) *Instance {
	// Representative centers (bounding-rect midpoints) feed the Z-order
	// neighbor index of the pruned solvers; they cost one pass here and
	// nothing when pruning is off.
	centers := make([]geom.Point, len(qs))
	for i, q := range qs {
		b := q.Region.BoundingRect()
		centers[i] = geom.Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2}
	}
	return &Instance{
		N:       len(qs),
		Model:   model,
		Sizer:   geomSizer(qs, proc, est),
		Centers: centers,
		Overlap: func(i, j int) float64 {
			ri, iok := qs[i].Region.(geom.Rect)
			rj, jok := qs[j].Region.(geom.Rect)
			if !iok || !jok {
				return 0
			}
			inter := ri.Intersection(rj)
			if inter.Empty() {
				return 0
			}
			return est.SizeBytes(inter)
		},
	}
}

// geomSizer picks the fastest sound size path for the query list. When
// the merge procedure is the bounding rectangle and every footprint is an
// axis-aligned rectangle, merged sizes reduce to a rectangle union fed to
// the estimator's RectSizer fast path — no Region boxing, no member
// slice, no allocation per probe — or, under the exact estimator, to a
// lookup in a rank-space table of the relation (see rectSizer). Otherwise
// the general path materializes the member queries from a pool and runs
// the full merge procedure; merge procedures do not retain their argument,
// so the pool is sound, and every path is safe for the concurrent solvers
// (parallel DirectedSearch restarts and Clustering components).
func geomSizer(qs []query.Query, proc query.MergeProcedure, est relation.Estimator) cost.Sizer {
	if _, isBR := proc.(query.BoundingRect); isBR {
		if rs, ok := est.(relation.RectSizer); ok {
			rects := make([]geom.Rect, len(qs))
			allRect := true
			for i, q := range qs {
				r, ok := q.Region.(geom.Rect)
				if !ok {
					allRect = false
					break
				}
				rects[i] = r
			}
			if allRect {
				s := &rectSizer{rects: rects, rs: rs}
				if exact, ok := est.(relation.Exact); ok {
					s.exact = true
					if len(qs) >= tableMinQueries && len(qs) <= tableMaxQueries {
						s.rel = exact.Rel
					}
				}
				return s
			}
		}
	}
	memberPool := sync.Pool{New: func() any {
		buf := make([]query.Query, 0, 16)
		return &buf
	}}
	return cost.Func{
		SizeFn: func(i int) float64 { return est.SizeBytes(qs[i].Region) },
		MergedFn: func(set []int) float64 {
			bp := memberPool.Get().(*[]query.Query)
			members := (*bp)[:0]
			for _, q := range set {
				members = append(members, qs[q])
			}
			size := est.SizeBytes(proc.Merge(members))
			*bp = members[:0]
			memberPool.Put(bp)
			return size
		},
	}
}

// The window of instance sizes whose merged sizes come from a rank table
// (relation.RankTable) instead of one estimator probe each. Building the
// table is one pass over the tuples under the instance's bounding box; a
// probe scans the border ring of one candidate rectangle, a fixed share
// of those tuples, so the number of probes that pay for the pass does not
// depend on the relation's size, and an exact PairMerge asks for at least
// n(n-1)/2. Measured for one such solve on the plan-paper relation
// (BenchmarkRankTableCrossover; EXPERIMENTS.md, "Channel groups solved in
// place"), probes are cheaper below 12 queries, tie with the table at 12
// on 20k tuples and lose there on 100k, and the table wins from 16 on
// with both. The upper end bounds the table's
// memory: 2n cuts per axis are at most (2n+1)² prefix sums of 8 bytes,
// 2 MiB at n = 256, plus n² singleton-pair sizes of 8 bytes, 512 KiB —
// and past that size the planners prune candidates to O(n·k) probes or
// shard.
const (
	tableMinQueries = 16
	tableMaxQueries = 256
)

// rectSizer sizes rectangle queries merged by bounding rectangle. Sizes
// of single queries are estimator probes. So are merged sizes, unless the
// estimator is exact and the instance is inside the table window (rel is
// set): then the first merged size builds the relation's rank table over
// the queries and every merged size is four loads from it. The table is a
// snapshot of the relation at that moment, as a cost.Memo's entries are of
// the moments they were probed. The table is built on the first merged
// size, not with the instance, because some callers build an instance to
// read single sizes only.
type rectSizer struct {
	rects []geom.Rect
	rs    relation.RectSizer
	// exact reports that rs counts the bytes of the tuples inside a closed
	// rectangle (relation.Exact), so sizes add up over disjoint rectangles
	// (see disjointRects).
	exact bool

	rel   *relation.Relation
	once  sync.Once
	table *relation.RankTable // nil when the relation declines (a NaN edge)
}

func (s *rectSizer) Size(i int) float64 { return s.rs.SizeBytesRect(s.rects[i]) }

func (s *rectSizer) MergedSize(set []int) float64 {
	if len(set) == 1 {
		return s.Size(set[0])
	}
	if t := s.rankTable(); t != nil {
		return t.MergedSize(set)
	}
	out := geom.EmptyRect()
	for _, q := range set {
		out = out.Union(s.rects[q])
	}
	return s.rs.SizeBytesRect(out)
}

func (s *rectSizer) rankTable() *relation.RankTable {
	if s.rel == nil {
		return nil
	}
	s.once.Do(func() { s.table = s.rel.NewRankTable(s.rects) })
	return s.table
}

// tableSizer is an instance's sizer once CacheSizes has built the rank
// table: single and merged sizes both come from the table, so they
// describe one moment of the relation, and nothing is probed, locked or
// looked up in a map. pairs[i*n+j], i < j, is the merged size of queries
// i and j, read once from the table: most of a pair-merge solve's probes
// are of two singletons, and channel allocation re-solves overlapping
// groups hundreds of times per plan, so the engines read those from here
// (see pmEngine.probe). The entries below the diagonal stay zero.
type tableSizer struct {
	*relation.RankTable
	pairs   []float64
	lookups *metrics.Counter // fed by the pair-merge engines, see pmEngine.release
}

// CacheSizes makes merged sizes cheap to ask for again, for a caller about
// to run a solver on the instance. An instance whose merged sizes can come
// from a rank table gets the table and its singleton-pair sizes, built
// now; any other gets a cost.Memo around its sizer. sizes, when not nil,
// holds the single sizes the caller has already probed from the same
// estimator at the same moment (NaN where it has not), and the memo takes
// it over instead of probing them again (cost.NewMemoSizes); a table
// ignores it. The counters may be nil. hits counts the merged sizes
// answered without an estimator probe — per lookup by a memo, per solve by
// the pair-merge engines on a table (other solvers' table lookups go
// uncounted) — and misses the probes, which a table never makes.
func (inst *Instance) CacheSizes(sizes []float64, hits, misses, contended *metrics.Counter) {
	if rs, ok := inst.Sizer.(*rectSizer); ok {
		if t := rs.rankTable(); t != nil {
			n := inst.N
			pairs := make([]float64, n*n)
			set := []int{0, 0}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					set[0], set[1] = i, j
					pairs[i*n+j] = t.MergedSize(set)
				}
			}
			inst.Sizer = tableSizer{RankTable: t, pairs: pairs, lookups: hits}
			return
		}
	}
	var memo *cost.Memo
	if sizes != nil {
		memo = cost.NewMemoSizes(inst.Sizer, sizes)
	} else {
		memo = cost.NewMemo(inst.Sizer, inst.N)
	}
	memo.SetMetrics(hits, misses, contended)
	inst.Sizer = memo
}

// disjointRects returns the query rectangles of a sizer whose sizes add up
// over disjoint rectangles, and nil for any other sizer. That is an exact
// estimator sizing rectangle queries merged by bounding rectangle, probed
// or behind a memo: a set's merged size is the bytes of the tuples inside
// its bounding rectangle, so two sets whose rectangles share no point
// count no tuple twice, and their union's rectangle holds both. A
// tableSizer is not one: its pair sizes are already lookups.
func disjointRects(s cost.Sizer) []geom.Rect {
	if m, ok := s.(*cost.Memo); ok {
		s = m.Inner()
	}
	if rs, ok := s.(*rectSizer); ok && rs.exact {
		return rs.rects
	}
	return nil
}

// MergedRegions materializes the merged query footprint of every set in
// the plan, in plan order. The server uses this to execute the merged
// queries against the relation.
func MergedRegions(qs []query.Query, proc query.MergeProcedure, plan Plan) []geom.Region {
	out := make([]geom.Region, len(plan))
	for i, set := range plan {
		members := make([]query.Query, len(set))
		for j, q := range set {
			members[j] = qs[q]
		}
		out[i] = proc.Merge(members)
	}
	return out
}
