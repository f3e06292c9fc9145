// Package relation implements the database substrate of the subscription
// server: an in-memory spatial relation R(x, y, payload) with a uniform
// grid index for range search, plus the answer-size estimators the cost
// model needs (the paper defers size estimation to "well-known database
// system techniques [MCS88]"; we provide exact, uniform and histogram
// estimators).
package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"qsub/internal/geom"
	"qsub/internal/metrics"
)

// Tuple is one object stored in the relation: a position in the attribute
// space and an opaque payload (the "other attributes" describing the
// object in the BADD schema of §2).
type Tuple struct {
	ID      uint64
	Pos     geom.Point
	Payload []byte
}

// Size returns the transmission size of the tuple in bytes: the fixed
// header (id + two float64 coordinates) plus the payload.
func (t Tuple) Size() int { return tupleHeaderSize + len(t.Payload) }

// tupleHeaderSize is the wire size of the fixed part of a tuple: a uint64
// id and two float64 coordinates.
const tupleHeaderSize = 8 + 8 + 8

// Relation is an in-memory spatial relation indexed by a uniform grid. It
// is safe for concurrent use: reads take a shared lock and writes an
// exclusive one, matching the subscription server's pattern of bulk loads
// followed by concurrent query cycles.
type Relation struct {
	mu     sync.RWMutex
	bounds geom.Rect
	index  *gridIndex
	tuples []Tuple
	dead   []bool         // tombstones, parallel to tuples
	byID   map[uint64]int // live tuple id -> slot
	live   int
	delLog []deletion
	nextID uint64

	// Optional nil-safe delta instrumentation (see SetDeltaMetrics).
	deltaBatch   *metrics.Histogram
	deltaDeleted *metrics.Counter
}

// deletion journals one removed tuple for delta dissemination: seq is the
// watermark position of the delete (shared counter with inserted ids).
type deletion struct {
	t   Tuple
	seq uint64
}

// New creates a relation covering the given bounds, indexed by an nx × ny
// uniform grid. Tuples outside the bounds are still stored and searchable;
// they land in the nearest boundary cell.
func New(bounds geom.Rect, nx, ny int) (*Relation, error) {
	if bounds.Empty() {
		return nil, errors.New("relation: bounds must be non-empty")
	}
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("relation: grid dimensions %dx%d must be at least 1x1", nx, ny)
	}
	return &Relation{
		bounds: bounds,
		index:  newGridIndex(bounds, nx, ny),
		byID:   make(map[uint64]int),
	}, nil
}

// MustNew is New but panics on error; convenient for tests and examples
// with constant arguments.
func MustNew(bounds geom.Rect, nx, ny int) *Relation {
	r, err := New(bounds, nx, ny)
	if err != nil {
		panic(err)
	}
	return r
}

// Bounds returns the nominal attribute-space bounds of the relation.
func (r *Relation) Bounds() geom.Rect { return r.bounds }

// Len returns the number of live (not deleted) tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live
}

// Insert stores a new tuple at the given position and returns its assigned
// id.
func (r *Relation) Insert(pos geom.Point, payload []byte) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	idx := len(r.tuples)
	t := Tuple{ID: id, Pos: pos, Payload: payload}
	r.tuples = append(r.tuples, t)
	r.dead = append(r.dead, false)
	r.byID[id] = idx
	r.live++
	r.index.insert(idx, pos, t.Size())
	return id
}

// Delete removes the tuple with the given id, reporting whether it
// existed. Deleted slots become tombstones (skipped by searches and
// excluded from snapshots; writing and reloading a snapshot compacts
// them) and the deletion is journaled so delta dissemination can ship
// removal notices (§11 dynamic scenario).
func (r *Relation) Delete(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.byID[id]
	if !ok {
		return false
	}
	delete(r.byID, id)
	r.dead[idx] = true
	r.live--
	t := r.tuples[idx]
	r.index.remove(t.Pos, t.Size())
	r.nextID++ // deletes advance the watermark too
	r.delLog = append(r.delLog, deletion{t: t, seq: r.nextID})
	return true
}

// DeletedSince returns the tuples deleted after the given watermark, in
// deletion order. Pair with InsertedSince to build per-period deltas.
func (r *Relation) DeletedSince(mark uint64) []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.deletedSince(mark)
}

// deletedSince copies the journaled tuples past the watermark. Entries
// are appended with increasing seq, so a binary search finds the first
// one and the cost follows the period's deletes, not the journal's
// length. Caller must hold at least a read lock.
func (r *Relation) deletedSince(mark uint64) []Tuple {
	first := sort.Search(len(r.delLog), func(i int) bool { return r.delLog[i].seq > mark })
	if first == len(r.delLog) {
		return nil
	}
	out := make([]Tuple, 0, len(r.delLog)-first)
	for _, d := range r.delLog[first:] {
		out = append(out, d.t)
	}
	return out
}

// Search returns all tuples whose position lies inside the region, in
// ascending id order. It uses the grid index to restrict the scan to cells
// overlapping the region's bounding rectangle.
func (r *Relation) Search(region geom.Region) []Tuple {
	return r.SearchAppend(region, nil)
}

// SearchAppend appends all tuples whose position lies inside the region
// to buf, in ascending id order, and returns the extended slice. Passing
// a reused buffer (buf[:0]) lets per-worker dissemination loops avoid
// allocating a fresh result slice per query set; only the appended tail
// is sorted, so entries already in buf are left untouched.
func (r *Relation) SearchAppend(region geom.Region, buf []Tuple) []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	start := len(buf)
	r.scan(region, func(t Tuple) { buf = append(buf, t) })
	tail := buf[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].ID < tail[j].ID })
	return buf
}

// Count returns the number of tuples inside the region.
func (r *Relation) Count(region geom.Region) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	r.scan(region, func(Tuple) { n++ })
	return n
}

// SizeBytes returns the total transmission size of all tuples inside the
// region: the exact value of the paper's size(q). Rectangles take the
// SizeBytesRect path.
func (r *Relation) SizeBytes(region geom.Region) int {
	if q, ok := region.(geom.Rect); ok {
		return r.SizeBytesRect(q)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scanBytes(region)
}

// SizeBytesRect is SizeBytes for a rectangle without the Region boxing,
// and without the scan of the rectangle's inside: the cells strictly
// between the rectangle's first and last cell column and row come from
// the index's byte aggregate, and only the ring of cells holding the
// rectangle's border is scanned tuple by tuple, so a probe costs
// O(perimeter) instead of O(area).
//
// The result is exact. cellXY is monotone in each coordinate, so a tuple
// in a column strictly between the columns of q.MinX and q.MaxX has
// q.MinX < x < q.MaxX, and likewise for rows: every live tuple of an
// interior cell is inside q. The boundary cells of the grid, which also
// hold the tuples outside the relation's bounds, are never interior
// because the first and last column and row are clamped into the grid.
func (r *Relation) SizeBytesRect(q geom.Rect) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if q.Empty() {
		return 0
	}
	g := r.index
	i0, i1, j0, j1 := g.cellRange(q)
	n := g.blockBytes(i0+1, i1-1, j0+1, j1-1)
	for j := j0; j <= j1; j++ {
		// The first and last row are scanned whole, the rows between
		// them only at their two end columns.
		step := 1
		if j != j0 && j != j1 {
			step = max(i1-i0, 1)
		}
		for i := i0; i <= i1; i += step {
			for _, e := range g.cells[j*g.nx+i] {
				if q.Contains(e.pos) && !r.dead[e.idx] {
					n += e.size
				}
			}
		}
	}
	return n
}

// scanBytes sums the sizes of the tuples inside the region by scanning
// the index candidates. Caller must hold at least a read lock.
func (r *Relation) scanBytes(region geom.Region) int {
	n := 0
	r.scan(region, func(t Tuple) { n += t.Size() })
	return n
}

// scan invokes fn for every tuple inside the region. Caller must hold at
// least a read lock.
func (r *Relation) scan(region geom.Region, fn func(Tuple)) {
	br := region.BoundingRect()
	if br.Empty() {
		return
	}
	r.index.candidates(br, func(idx int) {
		if r.dead[idx] {
			return
		}
		t := r.tuples[idx]
		if region.Contains(t.Pos) {
			fn(t)
		}
	})
}

// All returns a copy of every live tuple in insertion order.
func (r *Relation) All() []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Tuple, 0, r.live)
	for i, t := range r.tuples {
		if !r.dead[i] {
			out = append(out, t)
		}
	}
	return out
}

// InsertedSince returns tuples with id greater than the given id, in id
// order. The continuous-query mode of the server uses this to disseminate
// per-period deltas (future work §11: "queries are continuous, and return
// new objects added to the database").
//
// Ids are assigned monotonically and tuples are only ever appended (and
// compacted in order), so r.tuples is already id-ascending: a binary
// search finds the first tuple past the watermark and the live tail is
// returned as-is, with no full scan or re-sort.
func (r *Relation) InsertedSince(id uint64) []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	first := sort.Search(len(r.tuples), func(i int) bool { return r.tuples[i].ID > id })
	var out []Tuple
	for i := first; i < len(r.tuples); i++ {
		if !r.dead[i] {
			out = append(out, r.tuples[i])
		}
	}
	return out
}

// MaxID returns the largest assigned tuple id (0 if the relation is
// empty).
func (r *Relation) MaxID() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextID
}

// Compact rebuilds the relation's storage and index without tombstones,
// reclaiming the space of deleted tuples and clearing the deletion
// journal. Ids and the watermark are preserved. Compact takes the write
// lock for its whole duration.
func (r *Relation) Compact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	tuples := make([]Tuple, 0, r.live)
	for i, t := range r.tuples {
		if !r.dead[i] {
			tuples = append(tuples, t)
		}
	}
	index := newGridIndex(r.index.bounds, r.index.nx, r.index.ny)
	r.tuples = tuples
	r.dead = make([]bool, len(tuples))
	r.byID = make(map[uint64]int, len(tuples))
	r.delLog = nil
	for i, t := range tuples {
		r.byID[t.ID] = i
		index.insert(i, t.Pos, t.Size())
	}
	r.index = index
}
