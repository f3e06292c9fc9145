package relation

import (
	"errors"

	"qsub/internal/geom"
)

// Estimator predicts the answer size, in bytes, of a query with the given
// geometric footprint. The cost model (§4) is driven entirely by size(q)
// estimates; the paper cites standard selectivity estimation techniques
// [MCS88] and we provide the three classical variants.
type Estimator interface {
	// SizeBytes estimates the transmission size of the answer to a
	// query whose footprint is the given region.
	SizeBytes(region geom.Region) float64
}

// Exact is an Estimator that reports the actual size of the matching
// tuples: rectangles from the grid index's byte aggregate plus a scan of
// the rectangle's border cells (Relation.SizeBytesRect), other regions by
// an index scan. It is the most precise and the most expensive; the
// experiment harness uses it so heuristic-vs-optimal comparisons are not
// polluted by estimation error.
type Exact struct {
	Rel *Relation
}

// SizeBytes returns the exact answer size (see Relation.SizeBytes).
func (e Exact) SizeBytes(region geom.Region) float64 {
	return float64(e.Rel.SizeBytes(region))
}

// SizeBytesRect is the RectSizer fast path (see Relation.SizeBytesRect).
func (e Exact) SizeBytesRect(r geom.Rect) float64 {
	return float64(e.Rel.SizeBytesRect(r))
}

// Uniform estimates sizes assuming tuples are uniformly distributed:
// size = area × density × bytes-per-tuple. It is the cheapest estimator
// and exact in expectation for uniform data.
type Uniform struct {
	// Density is the number of tuples per unit area.
	Density float64
	// BytesPerTuple is the average transmission size of one tuple.
	BytesPerTuple float64
}

// SizeBytes returns area × density × bytes-per-tuple.
func (u Uniform) SizeBytes(region geom.Region) float64 {
	return region.Area() * u.Density * u.BytesPerTuple
}

// SizeBytesRect is the RectSizer fast path: identical to SizeBytes for a
// rectangle footprint, without the Region interface conversion.
func (u Uniform) SizeBytesRect(r geom.Rect) float64 {
	return r.Area() * u.Density * u.BytesPerTuple
}

// RectSizer is an optional fast path implemented by estimators whose
// rectangle estimate needs no Region indirection. The solver hot loop
// probes millions of candidate merges; calling SizeBytesRect on a plain
// geom.Rect avoids boxing the rectangle into the Region interface (one
// heap allocation per probe).
//
// Implementations must return exactly the same value as
// SizeBytes(geom.Region(r)) so plans do not depend on which path ran.
type RectSizer interface {
	SizeBytesRect(r geom.Rect) float64
}

// Histogram is an equi-width two-dimensional histogram estimator. It
// supports the "non-uniform object space" extension (§11): cluster-heavy
// data is summarized per bucket, and a query's size estimate is the sum of
// bucket densities weighted by overlap fraction.
type Histogram struct {
	bounds        geom.Rect
	nx, ny        int
	bytesInBucket []float64
}

// BuildHistogram summarizes the relation into an nx × ny equi-width
// histogram of answer bytes per bucket.
func BuildHistogram(rel *Relation, nx, ny int) (*Histogram, error) {
	if nx < 1 || ny < 1 {
		return nil, errors.New("relation: histogram dimensions must be at least 1x1")
	}
	h := &Histogram{
		bounds:        rel.Bounds(),
		nx:            nx,
		ny:            ny,
		bytesInBucket: make([]float64, nx*ny),
	}
	for _, t := range rel.All() {
		i := gridCoord((t.Pos.X-h.bounds.MinX)/h.bounds.Width()*float64(nx), nx)
		j := gridCoord((t.Pos.Y-h.bounds.MinY)/h.bounds.Height()*float64(ny), ny)
		h.bytesInBucket[j*nx+i] += float64(t.Size())
	}
	return h, nil
}

// SizeBytes estimates the answer size as the sum over histogram buckets of
// bucket bytes × fraction of the bucket covered by the region. Coverage is
// measured against the region's bounding rectangle intersected with the
// bucket, then scaled by the region's area fill ratio inside its bounding
// rectangle — exact for rectangles, an approximation for polygons and
// unions.
func (h *Histogram) SizeBytes(region geom.Region) float64 {
	br := region.BoundingRect().Intersection(h.bounds)
	if br.Empty() {
		return 0
	}
	fill := 1.0
	if bra := region.BoundingRect().Area(); bra > 0 {
		fill = region.Area() / bra
	}
	return h.rectBytes(br) * fill
}

// SizeBytesRect is the RectSizer fast path: a rectangle fills its own
// bounding rectangle, so the fill ratio is 1 and the estimate reduces to
// the bucket sweep.
func (h *Histogram) SizeBytesRect(r geom.Rect) float64 {
	br := r.Intersection(h.bounds)
	if br.Empty() {
		return 0
	}
	return h.rectBytes(br)
}

// rectBytes sums bucket bytes weighted by the fraction of each bucket the
// (already bounds-clipped) rectangle covers.
func (h *Histogram) rectBytes(br geom.Rect) float64 {
	bw := h.bounds.Width() / float64(h.nx)
	bh := h.bounds.Height() / float64(h.ny)
	i0 := gridCoord((br.MinX-h.bounds.MinX)/bw, h.nx)
	i1 := gridCoord((br.MaxX-h.bounds.MinX)/bw, h.nx)
	j0 := gridCoord((br.MinY-h.bounds.MinY)/bh, h.ny)
	j1 := gridCoord((br.MaxY-h.bounds.MinY)/bh, h.ny)
	total := 0.0
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			bucket := geom.Rect{
				MinX: h.bounds.MinX + float64(i)*bw,
				MinY: h.bounds.MinY + float64(j)*bh,
				MaxX: h.bounds.MinX + float64(i+1)*bw,
				MaxY: h.bounds.MinY + float64(j+1)*bh,
			}
			overlap := bucket.Intersection(br).Area()
			if overlap <= 0 {
				continue
			}
			total += h.bytesInBucket[j*h.nx+i] * (overlap / bucket.Area())
		}
	}
	return total
}

var (
	_ Estimator = Exact{}
	_ Estimator = Uniform{}
	_ Estimator = (*Histogram)(nil)
	_ RectSizer = Exact{}
	_ RectSizer = Uniform{}
	_ RectSizer = (*Histogram)(nil)
)
