// Package shard implements the sharded planning pipeline: subscription
// aggregation, Morton-code spatial sharding, concurrent per-shard query
// merging on per-shard memoized sizers, and stitching of per-shard plans
// into one global per-channel publish schedule.
//
// The pipeline trades a small amount of plan quality for asymptotic
// planning cost: instead of one global solve over n subscriptions (the
// §6 merge algorithms are Ω(n²), channel allocation re-merges per probe)
// it (1) collapses covered and near-duplicate subscriptions into
// representatives, (2) partitions the representatives into 2^ShardBits
// Z-order cells, and (3) solves each cell independently, so total work
// is Σ m_i² with Σ m_i ≤ reps ≪ n. The member→representative mapping is
// tracked throughout and every stitched plan set is expanded back to
// original query indices, so publish addressing and client extraction
// remain exact — aggregation only changes what the solver sees, never
// what clients receive (the "aggregation exactness contract", DESIGN.md
// §8).
package shard

import (
	"slices"
	"sync"

	"qsub/internal/geom"
	"qsub/internal/query"
)

// Rep is one aggregation representative: a bounding rectangle covering
// every member subscription's footprint, plus the member query indices.
type Rep struct {
	// Rect covers the bounding rectangles of all member regions.
	Rect geom.Rect
	// Members are the original query indices, in ascending order.
	Members []int
}

// Aggregation is the result of the aggregation pass: the representative
// list and the member→representative mapping. With aggregation disabled
// the identity aggregation has one singleton Rep per query.
type Aggregation struct {
	Reps []Rep
	// RepOf maps each original query index to its representative.
	RepOf []int
	// Collapsed counts queries absorbed into a non-singleton Rep
	// (n − len(Reps)).
	Collapsed int
}

// aggCellCandidates bounds how many same-cell representatives a cover
// probe inspects. Coverage absorption is an optimization, not a
// correctness requirement (stitched sets always re-merge original
// regions), so capping the scan keeps the pass near-linear on
// adversarial inputs.
const aggCellCandidates = 64

// coverGridSide is the resolution of the transient grid used by the
// covered-representative pass.
const coverGridSide = 64

// Aggregate collapses the queries into representatives. Two queries are
// near-duplicates when their bounding rectangles quantize to the same
// cell signature on a grid of pitch slack·extent; a representative is
// covered when its rectangle lies inside a larger representative's
// rectangle expanded by one pitch. Both collapse member lists into the
// surviving Rep, whose rectangle is the union of its members' bounds,
// so a Rep always covers everything it stands for.
//
// slack ≤ 0 selects the default of 1/128 of the workload extent per
// axis. The pass is deterministic: iteration follows query index order
// and ties break on lower index. Its working state is pooled, so a warm
// pass allocates only the result: RepOf, Reps and one block behind every
// Members list.
func Aggregate(qs []query.Query, slack float64) Aggregation {
	n := len(qs)
	agg := Aggregation{RepOf: make([]int, n)}
	if n == 0 {
		return agg
	}
	sc := aggScratches.Get().(*aggScratch)
	defer aggScratches.Put(sc)
	bounds := geom.EmptyRect()
	for _, q := range qs {
		bounds = bounds.Union(q.Region.BoundingRect())
	}
	if slack <= 0 {
		slack = 1.0 / 128
	}
	pitchX := bounds.Width() * slack
	pitchY := bounds.Height() * slack
	quant := func(v, lo, pitch float64) int32 {
		if pitch <= 0 {
			return 0
		}
		return int32((v - lo) / pitch)
	}

	// Pass 1 — near-duplicates: queries whose quantized corner signature
	// matches join the first-seen representative for that signature.
	// RepOf holds pass-1 representatives until the end.
	clear(sc.repAt)
	sc.rects = sc.rects[:0]
	for i, q := range qs {
		r := q.Region.BoundingRect()
		s := sig{
			quant(r.MinX, bounds.MinX, pitchX), quant(r.MinY, bounds.MinY, pitchY),
			quant(r.MaxX, bounds.MinX, pitchX), quant(r.MaxY, bounds.MinY, pitchY),
		}
		ri, ok := sc.repAt[s]
		if !ok {
			ri = len(sc.rects)
			sc.repAt[s] = ri
			sc.rects = append(sc.rects, r)
		}
		sc.rects[ri] = sc.rects[ri].Union(r)
		agg.RepOf[i] = ri
	}

	// Pass 2 — covered representatives: a rep inside another rep's
	// rectangle expanded by one quantization pitch is absorbed by it
	// (the expansion catches near-duplicates whose corners straddle a
	// quantization cell boundary and so escaped pass 1).
	m := len(sc.rects)
	sc.absorbedInto = grown(sc.absorbedInto, m)
	for i := range sc.absorbedInto {
		sc.absorbedInto[i] = -1
	}
	if m > 1 {
		sc.absorbCovered(bounds, pitchX, pitchY)
	}

	// Compact the survivors, preserving first-appearance order, and
	// resolve every query to its survivor. Members fill in query order,
	// so each list is ascending.
	sc.newIndex = grown(sc.newIndex, m)
	survivors := 0
	for i, into := range sc.absorbedInto {
		if into < 0 {
			sc.newIndex[i] = survivors
			survivors++
		}
	}
	agg.Reps = make([]Rep, survivors)
	sc.count = grown(sc.count, survivors)
	clear(sc.count)
	for i, into := range sc.absorbedInto {
		if into < 0 {
			agg.Reps[sc.newIndex[i]].Rect = sc.rects[i]
		}
	}
	for q, ri := range agg.RepOf {
		// A container is never absorbed itself: it was in the grid.
		if into := sc.absorbedInto[ri]; into >= 0 {
			ri = into
		}
		agg.RepOf[q] = sc.newIndex[ri]
		sc.count[agg.RepOf[q]]++
	}
	block := make([]int, n)
	for ri, k := range sc.count {
		agg.Reps[ri].Members = block[:0:k]
		block = block[k:]
	}
	for q, ri := range agg.RepOf {
		agg.Reps[ri].Members = append(agg.Reps[ri].Members, q)
	}
	agg.Collapsed = n - survivors
	return agg
}

// sig is a pass-1 signature: a bounding rectangle's quantized corners.
type sig struct{ x0, y0, x1, y1 int32 }

// aggScratch is Aggregate's working state, pooled: a sharded plan
// aggregates every channel's subscriptions, and the cover grid alone is
// two 16 KiB arrays.
type aggScratch struct {
	repAt map[sig]int
	// rects[ri] is pass-1 representative ri's rectangle; a container's
	// grows with what it absorbs.
	rects        []geom.Rect
	absorbedInto []int // the representative ri was absorbed by, or -1
	newIndex     []int // a survivor's index in Reps
	count        []int // a survivor's member count
	order        []int
	grid         coverGrid
}

var aggScratches = sync.Pool{New: func() any { return &aggScratch{repAt: make(map[sig]int)} }}

// coverGrid is the covered-representative pass's candidate index: per
// cell, the representatives whose rectangle overlaps it, in insertion
// order. The lists live in flat arrays — head and tail entry per cell,
// next entry per entry — with entry e stored at e−1, so 0 ends a list and
// a cleared grid is empty.
type coverGrid struct {
	head, tail [coverGridSide * coverGridSide]int32
	next, rep  []int32
}

func (g *coverGrid) reset() {
	clear(g.head[:])
	clear(g.tail[:])
	g.next, g.rep = g.next[:0], g.rep[:0]
}

// add appends representative ri to the cell's list.
func (g *coverGrid) add(cell, ri int) {
	g.rep = append(g.rep, int32(ri))
	g.next = append(g.next, 0)
	e := int32(len(g.rep))
	if t := g.tail[cell]; t == 0 {
		g.head[cell] = e
	} else {
		g.next[t-1] = e
	}
	g.tail[cell] = e
}

// absorbCovered runs the covered-representative pass over the pass-1
// representatives in rects, filling absorbedInto. Candidates come from
// the cover grid keyed by the covered rep's center cell; processing order
// is area descending so containers exist in the grid before their
// contents are probed. A container's rectangle is re-unioned with
// everything it absorbs, so it always covers its members even when
// absorption used the pitch tolerance.
func (sc *aggScratch) absorbCovered(bounds geom.Rect, pitchX, pitchY float64) {
	sc.order = grown(sc.order, len(sc.rects))
	for i := range sc.order {
		sc.order[i] = i
	}
	// Area descending; a NaN area ties with everything, as it always has.
	slices.SortStableFunc(sc.order, func(a, b int) int {
		switch aa, ab := sc.rects[a].Area(), sc.rects[b].Area(); {
		case aa > ab:
			return -1
		case aa < ab:
			return 1
		}
		return 0
	})

	cw := bounds.Width() / coverGridSide
	ch := bounds.Height() / coverGridSide
	// cell returns the grid column (or row) of v: 0 on a zero-width axis,
	// clamped into the grid, where an infinite or NaN coordinate would
	// otherwise convert to an arbitrary integer.
	cell := func(v, lo, w float64) int {
		if !(w > 0) {
			return 0
		}
		return clampCell(int((v - lo) / w))
	}
	g := &sc.grid
	g.reset()
	for _, ri := range sc.order {
		r := sc.rects[ri]
		found := -1
		probes := 0
		center := cell((r.MinY+r.MaxY)/2, bounds.MinY, ch)*coverGridSide + cell((r.MinX+r.MaxX)/2, bounds.MinX, cw)
		for e := g.head[center]; e != 0; e = g.next[e-1] {
			ci := int(g.rep[e-1])
			if sc.absorbedInto[ci] >= 0 {
				continue
			}
			probes++
			if probes > aggCellCandidates {
				break
			}
			c := sc.rects[ci]
			c.MinX -= pitchX
			c.MinY -= pitchY
			c.MaxX += pitchX
			c.MaxY += pitchY
			if c.ContainsRect(r) {
				found = ci
				break
			}
		}
		if found >= 0 {
			sc.absorbedInto[ri] = found
			sc.rects[found] = sc.rects[found].Union(r)
			continue
		}
		// Insert the rep (largest first) into every grid cell its
		// rectangle overlaps; smaller reps then probe just their center
		// cell, which any container necessarily overlaps.
		x0, x1 := cell(r.MinX, bounds.MinX, cw), cell(r.MaxX, bounds.MinX, cw)
		y0, y1 := cell(r.MinY, bounds.MinY, ch), cell(r.MaxY, bounds.MinY, ch)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				g.add(cy*coverGridSide+cx, ri)
			}
		}
	}
}

func clampCell(c int) int {
	if c < 0 {
		return 0
	}
	if c >= coverGridSide {
		return coverGridSide - 1
	}
	return c
}

// grown returns s with length n, reallocating only when the capacity is
// short; the contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Identity returns the no-op aggregation: one singleton representative
// per query, in query order. The sharded pipeline uses it when
// aggregation is disabled so downstream stages see one shape.
func Identity(qs []query.Query) Aggregation {
	n := len(qs)
	agg := Aggregation{
		Reps:  make([]Rep, n),
		RepOf: make([]int, n),
	}
	for i, q := range qs {
		agg.Reps[i] = Rep{Rect: q.Region.BoundingRect(), Members: []int{i}}
		agg.RepOf[i] = i
	}
	return agg
}
