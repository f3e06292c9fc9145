// Package query defines the query model of the subscription system:
// geographic selection queries over the spatial relation (§3.2), each
// the extractor its client applies to merged answers (§3.1), and the
// merge procedures: the three of Fig 5 (bounding rectangle, convex
// bounding polygon, exact disjoint decomposition) plus the rectilinear
// banded hull.
package query

import (
	"fmt"

	"qsub/internal/geom"
)

// ID identifies a query within the subscription service. Clients use query
// ids in message headers to know which of their subscriptions an answer
// belongs to.
type ID uint64

// Query is a selection query over the spatial relation. Every query has a
// geometric footprint, and its answer is exactly the tuples whose position
// lies inside that footprint: rel.Search(q.Region). Because the paper's
// queries are pure selections, the extractor for a query is the query
// itself (§3.1: "In some cases, the extractor for a query is the query
// itself. In particular, this happens when queries only have selections
// and projections."): a client keeps the tuples of a merged answer that
// its Region contains.
type Query struct {
	ID     ID
	Region geom.Region
}

// Range constructs a geographic range query σ(c1≤x≤c3 ∧ c2≤y≤c4)R, the
// query form of the BADD scenario (§2).
func Range(id ID, r geom.Rect) Query {
	return Query{ID: id, Region: r}
}

// String returns a short description of the query.
func (q Query) String() string {
	return fmt.Sprintf("q%d over %v", q.ID, regionString(q.Region))
}

func regionString(r geom.Region) string {
	switch t := r.(type) {
	case geom.Rect:
		return t.String()
	case geom.Polygon:
		return fmt.Sprintf("polygon(%d vertices)", len(t))
	case geom.Union:
		return fmt.Sprintf("union(%d rects)", len(t))
	default:
		return fmt.Sprintf("%v", r)
	}
}

// Covers reports whether every point of q's footprint that the relation
// could return is necessarily inside m's footprint. For the merge
// procedures in this package it is sufficient to check bounding-rectangle
// containment plus member containment for unions; the property tests
// validate it empirically against tuple answers.
func Covers(m geom.Region, q geom.Region) bool {
	switch t := q.(type) {
	case geom.Rect:
		return regionContainsRect(m, t)
	case geom.Union:
		for _, r := range t {
			if !regionContainsRect(m, r) {
				return false
			}
		}
		return true
	default:
		// Fall back to corner containment of the bounding rectangle.
		return regionContainsRect(m, q.BoundingRect())
	}
}

// regionContainsRect reports whether the region contains the whole
// rectangle. For convex regions it suffices to test the four corners; for
// unions we test the disjoint sub-cells induced by the union's edges.
func regionContainsRect(m geom.Region, r geom.Rect) bool {
	if r.Empty() {
		return true
	}
	switch t := m.(type) {
	case geom.Rect:
		return t.ContainsRect(r)
	case geom.Polygon:
		for _, c := range r.Corners() {
			if !t.Contains(c) {
				return false
			}
		}
		return true
	case geom.Union:
		// The rectangle is contained iff the part of r outside the
		// union has zero area: area(union ∪ r) == area(union).
		with := make([]geom.Rect, 0, len(t)+1)
		with = append(with, t...)
		base := geom.UnionArea(with)
		with = append(with, r)
		const eps = 1e-9
		return geom.UnionArea(with) <= base+eps
	default:
		for _, c := range r.Corners() {
			if !m.Contains(c) {
				return false
			}
		}
		return m.Contains(geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2))
	}
}
