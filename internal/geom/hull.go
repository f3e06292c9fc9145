package geom

import (
	"math"
	"sort"
)

// Polygon is a convex polygon given by its vertices in counter-clockwise
// order. Polygons produced by ConvexHull are always convex; the methods on
// Polygon assume convexity.
type Polygon []Point

// ConvexHull returns the convex hull of the input points as a Polygon in
// counter-clockwise order using Andrew's monotone chain. Collinear points
// on the hull boundary are dropped. Degenerate inputs (fewer than three
// distinct points, or all collinear) yield a polygon with fewer than three
// vertices and zero area.
func ConvexHull(points []Point) Polygon {
	pts := make([]Point, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	// Deduplicate.
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			uniq = append(uniq, p)
		}
	}
	pts = uniq
	n := len(pts)
	if n < 3 {
		return Polygon(pts)
	}

	hull := make([]Point, 0, 2*n)
	// Lower chain.
	for _, p := range pts {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := pts[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return Polygon(hull[:len(hull)-1])
}

// cross returns the z-component of (b-a) × (c-a); positive when a→b→c
// turns counter-clockwise.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Area returns the area of the polygon via the shoelace formula. Polygons
// with fewer than three vertices have zero area.
func (pg Polygon) Area() float64 {
	if len(pg) < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		sum += p.X*q.Y - q.X*p.Y
	}
	return math.Abs(sum) / 2
}

// Contains reports whether the point lies inside or on the boundary of the
// convex polygon. Degenerate polygons contain only their own vertices and,
// for two-vertex polygons, the segment between them. A point with a NaN
// coordinate lies in no polygon, as in no rectangle.
func (pg Polygon) Contains(p Point) bool {
	if p.X != p.X || p.Y != p.Y {
		return false
	}
	switch len(pg) {
	case 0:
		return false
	case 1:
		return p == pg[0]
	case 2:
		// On-segment test.
		if cross(pg[0], pg[1], p) != 0 {
			return false
		}
		return p.X >= math.Min(pg[0].X, pg[1].X) && p.X <= math.Max(pg[0].X, pg[1].X) &&
			p.Y >= math.Min(pg[0].Y, pg[1].Y) && p.Y <= math.Max(pg[0].Y, pg[1].Y)
	}
	for i := range pg {
		if cross(pg[i], pg[(i+1)%len(pg)], p) < 0 {
			return false
		}
	}
	return true
}

// BoundingRect returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) BoundingRect() Rect {
	if len(pg) == 0 {
		return EmptyRect()
	}
	out := Rect{MinX: pg[0].X, MinY: pg[0].Y, MaxX: pg[0].X, MaxY: pg[0].Y}
	for _, p := range pg[1:] {
		out.MinX = math.Min(out.MinX, p.X)
		out.MinY = math.Min(out.MinY, p.Y)
		out.MaxX = math.Max(out.MaxX, p.X)
		out.MaxY = math.Max(out.MaxY, p.Y)
	}
	return out
}
