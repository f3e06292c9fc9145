package relation

import (
	"math"
	"slices"

	"qsub/internal/geom"
)

// RankTable answers the exact size in bytes of the bounding rectangle of
// any subset of a fixed list of rectangles with four loads: it is what
// SizeBytesRect would return for that rectangle at the moment the table
// was built, to the bit.
//
// The bounding rectangle of a set of rectangles takes each of its four
// edges from one of the members, so every rectangle the table can be
// asked about has its edges among the list's edges. Each axis is cut into
// half-open pieces at every lower edge and just above every upper edge,
// at math.Nextafter(upper, +Inf): for floats, x ≤ b exactly when
// x < Nextafter(b, +Inf), so a closed rectangle is a whole number of
// pieces on each axis — from the cut at its lower edge to the cut above
// its upper edge — and a 2-D prefix sum of the live bytes per piece pair
// gives its size exactly, tuples on an edge included. n rectangles make at
// most 2n cuts per axis, 2n+1 prefix lines. The last piece runs to +Inf
// inclusive, which is where an upper edge of +Inf ends.
//
// A table is a snapshot: it does not follow inserts and deletes made
// after it was built. It is immutable and safe for concurrent use.
type RankTable struct {
	// prefix[j*stride+i] is the live bytes of pieces [0, i) × [0, j).
	prefix []int64
	stride int
	rects  []RankRect
}

// RankRect is a rectangle in a table's rank space: the prefix columns and
// rows that bracket it, its bytes being the block [x0, x1) × [y0, y1). The
// bounding rectangle of a set of the table's rectangles is the Union of
// their RankRects, in any order and grouping, so a caller that keeps the
// union of a growing set sizes it with one BlockSize instead of a pass
// over its members. An empty rectangle is noRankRect, which a union skips
// as geom.Rect.Union skips an empty rectangle.
type RankRect struct{ x0, x1, y0, y1 int32 }

var noRankRect = RankRect{x0: math.MaxInt32, x1: -1, y0: math.MaxInt32, y1: -1}

// Union returns the rank rectangle bounding r and o.
func (r RankRect) Union(o RankRect) RankRect {
	return RankRect{x0: min(r.x0, o.x0), x1: max(r.x1, o.x1), y0: min(r.y0, o.y0), y1: max(r.y1, o.y1)}
}

// NewRankTable builds the table of the rectangles over the relation's
// live tuples, in one pass over the grid cells under the rectangles'
// bounding box and under one read lock. It returns nil when it cannot
// answer exactly as SizeBytesRect does: a rectangle has a NaN coordinate.
//
// The build is the one walk over the grid that lays it out first when a
// layout is due (see rlockLaidOut): it reads every entry under a box of
// cells, so the relation's largest reader pays for, and gains most from,
// the cells sharing one backing array.
func (r *Relation) NewRankTable(rects []geom.Rect) *RankTable {
	xs := make([]float64, 0, 2*len(rects))
	ys := make([]float64, 0, 2*len(rects))
	box := geom.EmptyRect()
	for _, q := range rects {
		if math.IsNaN(q.MinX) || math.IsNaN(q.MaxX) || math.IsNaN(q.MinY) || math.IsNaN(q.MaxY) {
			return nil
		}
		if !q.Empty() {
			xs = appendCuts(xs, q.MinX, q.MaxX)
			ys = appendCuts(ys, q.MinY, q.MaxY)
			box = box.Union(q)
		}
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)

	t := &RankTable{stride: len(xs) + 1, rects: make([]RankRect, len(rects))}
	t.prefix = make([]int64, t.stride*(len(ys)+1))
	for i, q := range rects {
		if q.Empty() {
			t.rects[i] = noRankRect
			continue
		}
		t.rects[i] = RankRect{
			x0: int32(rankOf(xs, q.MinX)), x1: int32(upperRank(xs, q.MaxX)),
			y0: int32(rankOf(ys, q.MinY)), y1: int32(upperRank(ys, q.MaxY)),
		}
	}

	r.rlockLaidOut()
	defer r.mu.RUnlock()
	if len(xs) == 0 {
		return t // nothing but empty rectangles
	}
	ax, ay := newRankAxis(xs), newRankAxis(ys)
	g := r.index
	i0, i1, j0, j1 := g.cellRange(box)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			for _, e := range g.cells[j*g.nx+i] {
				if !box.Contains(e.pos) || r.dead[e.idx] {
					continue
				}
				// Stored one row and one column in: prefix row 0
				// and column 0 stay zero.
				t.prefix[(ay.piece(e.pos.Y)+1)*t.stride+ax.piece(e.pos.X)+1] += int64(e.size)
			}
		}
	}
	for j := 1; j < len(t.prefix)/t.stride; j++ {
		row, above := t.prefix[j*t.stride:(j+1)*t.stride], t.prefix[(j-1)*t.stride:j*t.stride]
		var run int64
		for i := 1; i < t.stride; i++ {
			run += row[i]
			row[i] = run + above[i]
		}
	}
	return t
}

// rlockLaidOut takes the read lock, first laying the grid out under the
// write lock when the layout is due. Concurrent builds may all see it due;
// the first to get the write lock lays out and the others find it done.
func (r *Relation) rlockLaidOut() {
	r.mu.RLock()
	if !r.index.layOutDue() {
		return
	}
	r.mu.RUnlock()
	r.mu.Lock()
	if r.index.layOutDue() {
		r.index.layOut()
	}
	r.mu.Unlock()
	r.mu.RLock()
}

// appendCuts appends the cuts of the closed interval [lo, hi]: lo and the
// first float above hi. An upper edge of +Inf has no float above it and
// cuts nothing; its interval ends with the last piece.
func appendCuts(cuts []float64, lo, hi float64) []float64 {
	if math.IsInf(hi, 1) {
		return append(cuts, lo)
	}
	return append(cuts, lo, math.Nextafter(hi, math.Inf(1)))
}

// rankOf returns the index of v in the sorted distinct cuts.
func rankOf(cuts []float64, v float64) int {
	k, _ := slices.BinarySearch(cuts, v)
	return k
}

// upperRank returns the prefix line above the upper edge hi: the rank of
// its cut, or past the last piece for +Inf.
func upperRank(cuts []float64, hi float64) int {
	if math.IsInf(hi, 1) {
		return len(cuts)
	}
	return rankOf(cuts, math.Nextafter(hi, math.Inf(1)))
}

// rankAxis ranks tuple coordinates among the sorted distinct cuts of one
// axis. It lays slots of equal width over the cuts' span,
// many more than there are coordinates: the slot of a value is monotone in
// the value, so a coordinate in an earlier slot is below it and one in a
// later slot above it, and only the coordinates of the value's own slot —
// for most values none — are left to compare.
type rankAxis struct {
	coords []float64
	min    float64
	scale  float64 // slots per unit
	first  []int32 // first[s] counts the coordinates in slots before s; one entry past the last slot
}

// slotsPerCoord trades the size of rankAxis.first against the share of
// tuples, 1/slotsPerCoord, that find a coordinate in their slot.
const slotsPerCoord = 32

func newRankAxis(coords []float64) rankAxis {
	slots := slotsPerCoord * len(coords)
	a := rankAxis{coords: coords, min: coords[0], first: make([]int32, slots+1)}
	a.scale = float64(slots) / (coords[len(coords)-1] - coords[0])
	s := 0
	for k, c := range coords {
		for last := a.slot(c); s <= last; s++ {
			a.first[s] = int32(k)
		}
	}
	for ; s < len(a.first); s++ {
		a.first[s] = int32(len(coords))
	}
	return a
}

// slot is monotone non-decreasing in v, like gridCoord it is built on: an
// infinite span puts every value in slot 0, a zero one (a single cut)
// every value above the cut in the last slot.
func (a *rankAxis) slot(v float64) int {
	return gridCoord((v-a.min)*a.scale, len(a.first)-1)
}

// piece returns the piece holding v, which is at least the first cut: the
// index of the last cut at or below v.
func (a *rankAxis) piece(v float64) int {
	s := a.slot(v)
	k, hi := int(a.first[s]), int(a.first[s+1])
	for k < hi && a.coords[k] <= v {
		k++
	}
	return k - 1
}

// Size returns the size in bytes of rectangle i.
func (t *RankTable) Size(i int) float64 { return t.BlockSize(t.rects[i]) }

// Rect returns rectangle i in rank space.
func (t *RankTable) Rect(i int) RankRect { return t.rects[i] }

// MergedSize returns the size in bytes of the bounding rectangle of the
// rectangles in set; it does not retain set.
func (t *RankTable) MergedSize(set []int) float64 {
	u := noRankRect
	for _, q := range set {
		u = u.Union(t.rects[q])
	}
	return t.BlockSize(u)
}

// BlockSize returns the size in bytes of a rank rectangle of the table:
// of a rectangle, or of a union of them.
func (t *RankTable) BlockSize(r RankRect) float64 {
	if r.x0 > r.x1 {
		return 0 // nothing but empty rectangles
	}
	p, lo, hi := t.prefix, int(r.y0)*t.stride, int(r.y1)*t.stride
	return float64(p[hi+int(r.x1)] - p[lo+int(r.x1)] - p[hi+int(r.x0)] + p[lo+int(r.x0)])
}
