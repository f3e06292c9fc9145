package relation

import (
	"math"
	"slices"
	"sort"

	"qsub/internal/geom"
	"qsub/internal/metrics"
)

// SetDeltaMetrics attaches optional instrumentation to delta extraction:
// batch observes the inserted-tuple count of every DeltaIndex built,
// deleted accumulates the journaled deletions carried. Either handle may
// be nil; both are nil-safe, so uninstrumented relations pay one branch.
// Call before concurrent use.
func (r *Relation) SetDeltaMetrics(batch *metrics.Histogram, deleted *metrics.Counter) {
	r.deltaBatch = batch
	r.deltaDeleted = deleted
}

// DeltaIndex is a point-in-time snapshot of one dissemination period's
// churn: the tuples inserted since a watermark and the deletions
// journaled since it, with a small transient grid built over just the
// inserted batch. The continuous-mode server builds one DeltaIndex per
// cycle and lets every merged query probe the batch instead of
// re-searching the whole relation, so per-cycle cost scales with the
// update volume rather than the region size (§11 continuous scenario).
//
// A DeltaIndex owns copies of its tuples and is immutable after Delta
// returns: it is safe for concurrent use by the publish worker pool and
// stays valid across later relation mutations.
type DeltaIndex struct {
	inserted []Tuple // live tuples past the watermark, ascending id
	deleted  []Tuple // journaled deletions past the watermark, deletion order

	// Transient uniform grid over inserted in counting-sort (CSR)
	// layout — cell c's tuple indices are cellItems[cellStart[c]:
	// cellStart[c+1]] — so building it costs two passes and three
	// allocations regardless of cell count. cellStart is nil when the
	// batch is small enough that an ordered linear scan wins.
	bounds    geom.Rect
	nx, ny    int
	cellStart []int32
	cellItems []int32
}

// deltaGridMinBatch is the inserted-batch size below which probes scan
// the batch linearly instead of through the transient grid: building and
// walking grid cells only pays off once the batch outgrows a cache line
// or two of tuples.
const deltaGridMinBatch = 64

// Delta snapshots the churn since the given watermark: every live tuple
// with id greater than sinceID (in id order, as InsertedSince returns
// them) and every journaled deletion past it. The snapshot is taken under
// one read lock; the returned index does not alias relation storage.
func (r *Relation) Delta(sinceID uint64) *DeltaIndex {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d := &DeltaIndex{bounds: r.bounds}
	first := sort.Search(len(r.tuples), func(i int) bool { return r.tuples[i].ID > sinceID })
	if n := len(r.tuples) - first; n > 0 {
		d.inserted = make([]Tuple, 0, n)
		for i := first; i < len(r.tuples); i++ {
			if !r.dead[i] {
				d.inserted = append(d.inserted, r.tuples[i])
			}
		}
	}
	d.deleted = r.deletedSince(sinceID)
	d.buildGrid()
	r.deltaBatch.Observe(float64(len(d.inserted)))
	r.deltaDeleted.Add(uint64(len(d.deleted)))
	return d
}

// buildGrid lays the transient grid over the inserted batch, sized so
// cells hold a handful of tuples each under uniform spread.
func (d *DeltaIndex) buildGrid() {
	if len(d.inserted) < deltaGridMinBatch {
		return
	}
	side := int(math.Sqrt(float64(len(d.inserted)) / 4))
	if side < 2 {
		side = 2
	}
	if side > 256 {
		side = 256
	}
	d.nx, d.ny = side, side
	start := make([]int32, side*side+1)
	for _, t := range d.inserted {
		start[d.cellOf(t.Pos)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	items := make([]int32, len(d.inserted))
	fill := make([]int32, side*side)
	copy(fill, start[:side*side])
	for i, t := range d.inserted {
		c := d.cellOf(t.Pos)
		items[fill[c]] = int32(i)
		fill[c]++
	}
	d.cellStart, d.cellItems = start, items
}

// cellOf mirrors gridIndex.cellXY: positions outside the nominal bounds
// land in the nearest boundary cell (gridCoord).
func (d *DeltaIndex) cellOf(p geom.Point) int {
	cx := gridCoord(float64(d.nx)*(p.X-d.bounds.MinX)/d.bounds.Width(), d.nx)
	cy := gridCoord(float64(d.ny)*(p.Y-d.bounds.MinY)/d.bounds.Height(), d.ny)
	return cy*d.nx + cx
}

// Deleted returns the snapshot's deleted tuples in deletion order. The
// slice is owned by the index; callers must not modify it.
func (d *DeltaIndex) Deleted() []Tuple { return d.deleted }

// SearchAppend appends the inserted tuples lying inside the region to
// buf, in ascending id order, and returns the extended slice — the delta
// counterpart of Relation.SearchAppend. It is safe to call concurrently.
func (d *DeltaIndex) SearchAppend(region geom.Region, buf []Tuple) []Tuple {
	if len(d.inserted) == 0 {
		return buf
	}
	br := region.BoundingRect()
	if br.Empty() {
		return buf
	}
	if d.cellStart == nil {
		for _, t := range d.inserted {
			if region.Contains(t.Pos) {
				buf = append(buf, t)
			}
		}
		return buf
	}
	x0 := gridCoord(float64(d.nx)*(br.MinX-d.bounds.MinX)/d.bounds.Width(), d.nx)
	x1 := gridCoord(float64(d.nx)*(br.MaxX-d.bounds.MinX)/d.bounds.Width(), d.nx)
	y0 := gridCoord(float64(d.ny)*(br.MinY-d.bounds.MinY)/d.bounds.Height(), d.ny)
	y1 := gridCoord(float64(d.ny)*(br.MaxY-d.bounds.MinY)/d.bounds.Height(), d.ny)
	start := len(buf)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := cy*d.nx + cx
			for _, i := range d.cellItems[d.cellStart[c]:d.cellStart[c+1]] {
				if t := d.inserted[i]; region.Contains(t.Pos) {
					buf = append(buf, t)
				}
			}
		}
	}
	// Cells were visited in row order, not id order; restore id order on
	// the appended tail only (entries already in buf are untouched).
	tail := buf[start:]
	slices.SortFunc(tail, func(a, b Tuple) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	return buf
}

// MatchDeletedAppend matches every deleted tuple in the snapshot against
// all given regions in one pass, appending the ids of the deletions
// falling inside regions[i] to out[i] (in deletion order, the order
// DeletedSince reports). out must have len(regions) entries; it is
// returned for convenience. This replaces per-merged-group rescans of the
// deletion journal with one cycle-wide pass.
func (d *DeltaIndex) MatchDeletedAppend(regions []geom.Region, out [][]uint64) [][]uint64 {
	for _, dt := range d.deleted {
		for i, region := range regions {
			if region.Contains(dt.Pos) {
				out[i] = append(out[i], dt.ID)
			}
		}
	}
	return out
}
