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
// asked about has its edges among the list's distinct coordinates, at
// most 2n per axis. Each axis is cut at those coordinates into pieces:
// piece 2k is the single coordinate k, piece 2k+1 the open interval
// between coordinates k and k+1. A closed rectangle is then a whole
// number of pieces on each axis — from the point piece of its lower edge
// to the point piece of its upper edge — so a 2-D prefix sum of the live
// bytes per piece pair gives its size exactly, tuples on an edge
// included.
//
// A table is a snapshot: it does not follow inserts and deletes made
// after it was built. It is immutable and safe for concurrent use.
type RankTable struct {
	// prefix[j*stride+i] is the live bytes of pieces [0, i) × [0, j).
	prefix []int64
	stride int
	rects  []rankRect
}

// rankRect is one rectangle in rank space: the prefix columns and rows
// that bracket it, its bytes being the block [x0, x1) × [y0, y1). An empty
// rectangle is noRankRect, which a union of rankRects skips as
// geom.Rect.Union skips an empty rectangle.
type rankRect struct{ x0, x1, y0, y1 int32 }

var noRankRect = rankRect{x0: math.MaxInt32, x1: -1, y0: math.MaxInt32, y1: -1}

// NewRankTable builds the table of the rectangles over the relation's
// live tuples, in one pass over the grid cells under the rectangles'
// bounding box and under one read lock. It returns nil when it cannot
// answer exactly as SizeBytesRect does: the relation has no grid index,
// or a rectangle has a NaN coordinate.
func (r *Relation) NewRankTable(rects []geom.Rect) *RankTable {
	xs := make([]float64, 0, 2*len(rects))
	ys := make([]float64, 0, 2*len(rects))
	for _, q := range rects {
		if math.IsNaN(q.MinX) || math.IsNaN(q.MaxX) || math.IsNaN(q.MinY) || math.IsNaN(q.MaxY) {
			return nil
		}
		if !q.Empty() {
			xs = append(xs, q.MinX, q.MaxX)
			ys = append(ys, q.MinY, q.MaxY)
		}
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)

	t := &RankTable{stride: max(2*len(xs), 1), rects: make([]rankRect, len(rects))}
	t.prefix = make([]int64, t.stride*max(2*len(ys), 1))
	for i, q := range rects {
		if q.Empty() {
			t.rects[i] = noRankRect
			continue
		}
		// Coordinate k is piece 2k: the block starts at prefix column
		// 2k and ends after the upper edge's point piece, at 2k+1.
		t.rects[i] = rankRect{
			x0: int32(2 * rankOf(xs, q.MinX)), x1: int32(2*rankOf(xs, q.MaxX) + 1),
			y0: int32(2 * rankOf(ys, q.MinY)), y1: int32(2*rankOf(ys, q.MaxY) + 1),
		}
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.index.(*gridIndex)
	if !ok {
		return nil
	}
	if len(xs) == 0 {
		return t // nothing but empty rectangles
	}
	box := geom.Rect{MinX: xs[0], MinY: ys[0], MaxX: xs[len(xs)-1], MaxY: ys[len(ys)-1]}
	ax, ay := newRankAxis(xs), newRankAxis(ys)
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

// rankOf returns the index of v in the sorted distinct coordinates.
func rankOf(coords []float64, v float64) int {
	k, _ := slices.BinarySearch(coords, v)
	return k
}

// rankAxis ranks tuple coordinates among the sorted distinct coordinates
// of one axis. It lays slots of equal width over the coordinates' span,
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
	k := 0
	for s := range a.first {
		a.first[s] = int32(k)
		for k < len(coords) && a.slot(coords[k]) <= s {
			k++
		}
	}
	return a
}

// slot is monotone non-decreasing in v, like gridCoord it is built on: a
// span that is zero or infinite puts every value in slot 0.
func (a *rankAxis) slot(v float64) int {
	return gridCoord((v-a.min)*a.scale, len(a.first)-1)
}

// piece returns the piece holding v, which lies between the first and
// last coordinate: 2k when v is coordinate k, 2k-1 when it falls in the
// open interval below coordinate k.
func (a *rankAxis) piece(v float64) int {
	s := a.slot(v)
	k, hi := int(a.first[s]), int(a.first[s+1])
	for k < hi && a.coords[k] < v {
		k++
	}
	if k < hi && a.coords[k] == v {
		return 2 * k
	}
	return 2*k - 1
}

// Size returns the size in bytes of rectangle i.
func (t *RankTable) Size(i int) float64 { return t.block(t.rects[i]) }

// MergedSize returns the size in bytes of the bounding rectangle of the
// rectangles in set; it does not retain set.
func (t *RankTable) MergedSize(set []int) float64 {
	u := noRankRect
	for _, q := range set {
		r := t.rects[q]
		u.x0, u.x1 = min(u.x0, r.x0), max(u.x1, r.x1)
		u.y0, u.y1 = min(u.y0, r.y0), max(u.y1, r.y1)
	}
	return t.block(u)
}

func (t *RankTable) block(r rankRect) float64 {
	if r.x0 > r.x1 {
		return 0 // nothing but empty rectangles
	}
	p, lo, hi := t.prefix, int(r.y0)*t.stride, int(r.y1)*t.stride
	return float64(p[hi+int(r.x1)] - p[lo+int(r.x1)] - p[hi+int(r.x0)] + p[lo+int(r.x0)])
}

// Sub returns the table restricted to the given rectangles: rectangle i
// of the result is rectangle members[i] of t. It shares t's prefix sums
// and gathers only the rank rectangles, so a sub-instance of a solver
// indexes it directly instead of translating every set it asks about.
func (t *RankTable) Sub(members []int) *RankTable {
	s := &RankTable{prefix: t.prefix, stride: t.stride, rects: make([]rankRect, len(members))}
	for i, q := range members {
		s.rects[i] = t.rects[q]
	}
	return s
}
