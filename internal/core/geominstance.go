package core

import (
	"slices"
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
// n(n-1)/2 of them (on the table, it sizes each pair once, to list the
// pairs that can merge). Measured for one such solve on the plan-paper
// relation (BenchmarkRankTableCrossover; EXPERIMENTS.md, "Channel groups
// solved in place"), probes are cheaper below 12 queries, tie with the
// table at 12 on 20k tuples and lose there on 100k, and the table wins
// from 16 on with both. The upper end bounds the table's memory: 2n cuts
// per axis are at most (2n+1)² prefix sums of 8 bytes, 2 MiB at n = 256,
// plus at most n² candidate partners of 4 bytes, 256 KiB — and past that
// size the planners prune candidates to O(n·k) probes or shard.
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
// looked up in a map. The pair-merge engines size a set by the union of
// its members' rank rectangles (see pmEngine.probe) and seed a solve from
// cands, the instance's singleton pairs that can merge.
type tableSizer struct {
	*relation.RankTable
	cands   *pairLists
	lookups *metrics.Counter // fed by the pair-merge engines, see pmEngine.release
}

// pairLists are the candidate partners of every query of a table-sized
// instance: the queries j with PairDelta(model, 1, Size(i), 1, Size(j),
// MergedSize{i, j}) > 0 under the instance's K_T and K_U and the largest
// K_M any solve on the instance can be asked about (kmax). They are
// symmetric and in ascending order, partners of query i being
// partners[start[i]:start[i+1]].
//
// A solve under a model with those K_T and K_U and a K_M ≤ kmax seeds its
// heap from the lists instead of from every pair (see pmEngine.solve), and
// pushes exactly what the full seed pushes: the Δ-cost is (K_M + a) + b
// for terms a and b that do not depend on K_M, and floating-point addition
// is monotone, so a pair with Δ > 0 at some K_M has Δ > 0 at kmax.
type pairLists struct {
	kt, ku, kmax float64
	start        []int32
	partners     []int32
}

// newPairLists reads every singleton pair's merged size from the table
// once and keeps the pairs that can merge under model with K_M raised to
// kmax, when kmax is the larger.
func newPairLists(t *relation.RankTable, n int, model cost.Model, kmax float64) *pairLists {
	kmax = max(kmax, model.KM)
	top := model
	top.KM = kmax
	l := &pairLists{kt: model.KT, ku: model.KU, kmax: kmax, start: make([]int32, n+1)}
	var pairs []int32 // (i, j), i < j, in lexicographic order
	for i := 0; i < n; i++ {
		ri, si := t.Rect(i), t.Size(i)
		for j := i + 1; j < n; j++ {
			if cost.PairDelta(top, 1, si, 1, t.Size(j), t.BlockSize(ri.Union(t.Rect(j)))) > 0 {
				pairs = append(pairs, int32(i), int32(j))
				l.start[i+1]++
				l.start[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		l.start[i+1] += l.start[i]
	}
	// Filling in lexicographic order lists each query's smaller partners
	// before its larger ones, both ascending.
	l.partners = make([]int32, len(pairs))
	next := slices.Clone(l.start[:n])
	for k := 0; k < len(pairs); k += 2 {
		i, j := pairs[k], pairs[k+1]
		l.partners[next[i]], l.partners[next[j]] = j, i
		next[i]++
		next[j]++
	}
	return l
}

// admits reports whether a solve under model may seed from the lists.
func (l *pairLists) admits(model cost.Model) bool {
	return model.KT == l.kt && model.KU == l.ku && model.KM <= l.kmax
}

// CacheSizes makes merged sizes cheap to ask for again, for a caller about
// to run a solver on the instance. An instance whose merged sizes can come
// from a rank table gets the table and its candidate pairs, built now; any
// other gets a cost.Memo around its sizer. kmax is the largest K_M a solve
// on the instance is asked about, 0 when every solve uses the instance's
// own model (a channel allocator's group solves charge more per merged
// query; chanalloc.MaxChannelKM); a solve asked about a larger K_M seeds
// from every pair. sizes, when not nil, holds the single sizes the caller
// has already probed from the same estimator at the same moment (NaN where
// it has not), and the memo takes it over instead of probing them again
// (cost.NewMemoSizes); a table ignores it. The counters may be nil. hits
// counts the merged sizes answered without an estimator probe — per lookup
// by a memo, per solve by the pair-merge engines on a table (other
// solvers' table lookups go uncounted) — and misses the probes, which a
// table never makes.
func (inst *Instance) CacheSizes(sizes []float64, kmax float64, hits, misses *metrics.Counter) {
	if rs, ok := inst.Sizer.(*rectSizer); ok {
		if t := rs.rankTable(); t != nil {
			inst.Sizer = tableSizer{RankTable: t, cands: newPairLists(t, inst.N, inst.Model, kmax), lookups: hits}
			return
		}
	}
	var memo *cost.Memo
	if sizes != nil {
		memo = cost.NewMemoSizes(inst.Sizer, sizes)
	} else {
		memo = cost.NewMemo(inst.Sizer, inst.N)
	}
	memo.SetMetrics(hits, misses)
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
