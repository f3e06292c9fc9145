package relation

import (
	"math"

	"qsub/internal/geom"
)

// RegionIndex files a fixed list of regions under the cells of a uniform
// grid, so matching a point against all of them costs one cell lookup
// plus one Contains per region filed in that cell, instead of one
// Contains per region. It is event matching in the sense of Shi et al.
// (arXiv:1811.07088): a published plan's merged regions stay fixed for as
// long as the plan is published, so the server indexes them once and
// matches each inserted tuple and each removal notice against the index,
// rather than running every region against every period's batch.
//
// A RegionIndex is immutable after NewRegionIndex returns and safe for
// concurrent use.
type RegionIndex struct {
	regions []geom.Region
	cells   *cellLists
}

// A region grid has regionCellsPerExtent cells per mean region extent
// on each axis, so a probe's cell lists about (1+1/4)² ≈ 1.6 times the
// regions that contain the point, and a typical region files under about
// (4+1)² cells. regionGridMaxSide caps the grid per axis, and
// regionEntryBudget caps the filed entries per region on average: a grid
// sized for the typical region must not multiply out the few regions far
// larger than it.
const (
	regionCellsPerExtent = 4
	regionGridMaxSide    = 256
	regionEntryBudget    = 32
)

// NewRegionIndex builds the index over regions on a grid laid over
// bounds (normally the relation's). Regions and points outside the bounds
// are matched exactly like those inside: they file under, and probe, the
// nearest boundary cells. Each axis gets regionCellsPerExtent cells per
// mean region extent on that axis, so a non-square space gets
// non-square cells. A region with an empty bounding rectangle matches
// nothing, as in Relation.Search. The regions slice is retained, not
// copied.
func NewRegionIndex(bounds geom.Rect, regions []geom.Region) *RegionIndex {
	rects := make([]geom.Rect, len(regions))
	for i, r := range regions {
		rects[i] = r.BoundingRect()
	}
	g := grid{
		bounds: bounds,
		nx:     regionGridSide(bounds.Width(), rects, geom.Rect.Width),
		ny:     regionGridSide(bounds.Height(), rects, geom.Rect.Height),
	}
	// A grid finer than the typical region files every large region in
	// many cells; coarsen until the entries fit the budget.
	for (g.nx > 1 || g.ny > 1) && regionEntries(g, rects) > regionEntryBudget*len(rects) {
		g.nx, g.ny = max(g.nx/2, 1), max(g.ny/2, 1)
	}
	cells := newCellLists(g, len(rects), func(k int) (i0, i1, j0, j1 int, ok bool) {
		if rects[k].Empty() {
			return 0, 0, 0, 0, false
		}
		i0, i1, j0, j1 = g.cellRange(rects[k])
		return i0, i1, j0, j1, true
	})
	return &RegionIndex{regions: regions, cells: cells}
}

// regionGridSide returns the cell count along one axis of the given
// extent: regionCellsPerExtent cells per mean extent of the regions'
// bounding rectangles clipped to the space, within [1,
// regionGridMaxSide]. A few regions far larger than the rest pull the
// mean up and the grid coarser, which the entry budget would ask for
// anyway.
func regionGridSide(extent float64, rects []geom.Rect, width func(geom.Rect) float64) int {
	var sum float64
	n := 0
	for _, r := range rects {
		if w := min(width(r), extent); w > 0 {
			sum += w
			n++
		}
	}
	if n == 0 || !(extent > 0) || math.IsInf(extent, 0) {
		return 1
	}
	side := math.Ceil(regionCellsPerExtent * extent * float64(n) / sum)
	if !(side < regionGridMaxSide) {
		return regionGridMaxSide
	}
	return max(int(side), 1)
}

// regionEntries counts the cell entries the rectangles file on g.
func regionEntries(g grid, rects []geom.Rect) int {
	n := 0
	for _, r := range rects {
		if !r.Empty() {
			i0, i1, j0, j1 := g.cellRange(r)
			n += (i1 - i0 + 1) * (j1 - j0 + 1)
		}
	}
	return n
}

// MatchAppend appends to out[i] the tuples of ts lying inside region i,
// in the order of ts, for every region of the index; out must have one
// entry per region. Entries that are nil on entry become capped
// sub-slices of one arena sized exactly to the matches, so all of them
// cost one allocation and a later append to one never writes into
// another.
func (x *RegionIndex) MatchAppend(ts []Tuple, out [][]Tuple) {
	scatter(x, ts, out, func(t Tuple) Tuple { return t })
}

// MatchIDsAppend is MatchAppend for the tuples' ids: with ts a period's
// deletions in deletion order, out[i] receives region i's removal
// notices in that order.
func (x *RegionIndex) MatchIDsAppend(ts []Tuple, out [][]uint64) {
	scatter(x, ts, out, func(t Tuple) uint64 { return t.ID })
}

// scatter is MatchAppend for any per-tuple value. One probe pass records
// every (tuple, region) hit and counts the hits per region; the counts
// size one arena, and a stable fill pass lays each region's values out
// in tuple order.
func scatter[T any](x *RegionIndex, ts []Tuple, out [][]T, val func(Tuple) T) {
	if len(ts) == 0 || len(x.regions) == 0 {
		return
	}
	type hit struct{ t, r int32 }
	hits := make([]hit, 0, len(ts))
	end := make([]int32, len(x.regions))
	for k, t := range ts {
		for _, r := range x.cells.cell(x.cells.cellXY(t.Pos)) {
			if x.regions[r].Contains(t.Pos) {
				hits = append(hits, hit{int32(k), r})
				end[r]++
			}
		}
	}
	if len(hits) == 0 {
		return
	}
	var off int32
	for r, n := range end {
		end[r] = off // the region's next free slot, its end once filled
		off += n
	}
	arena := make([]T, len(hits))
	for _, h := range hits {
		arena[end[h.r]] = val(ts[h.t])
		end[h.r]++
	}
	var start int32
	for r, e := range end {
		if e > start {
			if part := arena[start:e:e]; out[r] == nil {
				out[r] = part
			} else {
				out[r] = append(out[r], part...)
			}
		}
		start = e
	}
}
