package relation

import (
	"math"
	"sort"
	"sync"

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
// journaled since it. SearchAppend lets a region probe the inserted batch
// instead of re-searching the whole relation, so per-cycle cost scales
// with the update volume rather than the region size (§11 continuous
// scenario); it files the batch under a small transient grid the first
// time it is called. A server whose plan is already indexed
// (RegionIndex) matches Inserted and Deleted against that instead, and
// never builds the batch grid.
//
// A DeltaIndex owns copies of its tuples and is immutable after Delta
// returns, save for the batch grid built once under a sync.Once: it is
// safe for concurrent use by the publish worker pool and stays valid
// across later relation mutations.
type DeltaIndex struct {
	bounds   geom.Rect
	inserted []Tuple // live tuples past the watermark, ascending id
	deleted  []Tuple // journaled deletions past the watermark, deletion order

	// The transient uniform grid over inserted, nil when the batch is
	// small enough that an ordered linear scan wins.
	batchOnce sync.Once
	batch     *cellLists
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
	r.deltaBatch.Observe(float64(len(d.inserted)))
	r.deltaDeleted.Add(uint64(len(d.deleted)))
	return d
}

// batchGrid builds (once) and returns the transient grid over the
// inserted batch, sized so cells hold a handful of tuples each under
// uniform spread; nil below deltaGridMinBatch.
func (d *DeltaIndex) batchGrid() *cellLists {
	d.batchOnce.Do(func() {
		if len(d.inserted) < deltaGridMinBatch {
			return
		}
		side := min(max(int(math.Sqrt(float64(len(d.inserted))/4)), 2), 256)
		g := grid{bounds: d.bounds, nx: side, ny: side}
		d.batch = newCellLists(g, len(d.inserted), func(k int) (i0, i1, j0, j1 int, ok bool) {
			i, j := g.cellXY(d.inserted[k].Pos)
			return i, i, j, j, true
		})
	})
	return d.batch
}

// Inserted returns the snapshot's inserted tuples in ascending id order.
// The slice is owned by the index; callers must not modify it.
func (d *DeltaIndex) Inserted() []Tuple { return d.inserted }

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
	g := d.batchGrid()
	if g == nil {
		for _, t := range d.inserted {
			if region.Contains(t.Pos) {
				buf = append(buf, t)
			}
		}
		return buf
	}
	// Cells are visited in row order, not id order: collect the matching
	// slots and gather them in slot order, which is id order.
	sp := slotPool.Get().(*[]int32)
	slots := (*sp)[:0]
	q, isRect := region.(geom.Rect)
	i0, i1, j0, j1 := g.cellRange(br)
	for j := j0; j <= j1; j++ {
		for _, k := range g.items[g.start[j*g.nx+i0]:g.start[j*g.nx+i1+1]] {
			if p := d.inserted[k].Pos; isRect {
				if !q.Contains(p) {
					continue
				}
			} else if !region.Contains(p) {
				continue
			}
			slots = append(slots, k)
		}
	}
	buf = gatherSlots(buf, d.inserted, slots)
	*sp = slots
	slotPool.Put(sp)
	return buf
}

// MatchDeletedAppend matches every deleted tuple in the snapshot against
// all given regions, appending the ids of the deletions falling inside
// regions[i] to out[i] (in deletion order, the order DeletedSince
// reports). out must have len(regions) entries; it is returned for
// convenience. It indexes the regions (NewRegionIndex over the
// relation's bounds) and matches each deletion against the index, the
// path the server takes with its plan's index built once.
func (d *DeltaIndex) MatchDeletedAppend(regions []geom.Region, out [][]uint64) [][]uint64 {
	if len(d.deleted) > 0 {
		NewRegionIndex(d.bounds, regions).MatchIDsAppend(d.deleted, out)
	}
	return out
}
