package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Point{3, 7}, Point{1, 2})
	want := Rect{1, 2, 3, 7}
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
}

func TestRectWH(t *testing.T) {
	r := RectWH(1, 2, 3, 4)
	if r != (Rect{1, 2, 4, 6}) {
		t.Fatalf("RectWH = %v", r)
	}
	if got := r.Area(); got != 12 {
		t.Fatalf("Area = %g, want 12", got)
	}
	if RectWH(0, 0, -1, 1).Area() != 0 {
		t.Fatal("negative width should give empty rect with zero area")
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 0, 0}, false}, // degenerate point is not empty
		{Rect{0, 0, 1, 1}, false},
		{Rect{1, 0, 0, 1}, true},
		{Rect{0, 1, 1, 0}, true},
		{EmptyRect(), true},
	}
	for _, c := range cases {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %t, want %t", c.r, got, c.want)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	for _, p := range []Point{{0, 0}, {10, 5}, {5, 2.5}, {0, 5}, {10, 0}} {
		if !r.Contains(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{{-0.1, 0}, {10.1, 5}, {5, 5.1}, {5, -0.1}} {
		if r.Contains(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestRectContainsRect(t *testing.T) {
	big := Rect{0, 0, 10, 10}
	if !big.ContainsRect(Rect{2, 2, 8, 8}) {
		t.Error("inner rect should be contained")
	}
	if !big.ContainsRect(big) {
		t.Error("rect should contain itself")
	}
	if big.ContainsRect(Rect{2, 2, 11, 8}) {
		t.Error("overflowing rect should not be contained")
	}
	if !big.ContainsRect(EmptyRect()) {
		t.Error("empty rect is contained in anything")
	}
	if EmptyRect().ContainsRect(big) {
		t.Error("empty rect contains nothing non-empty")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got := a.Intersection(b)
	if got != (Rect{2, 2, 4, 4}) {
		t.Fatalf("Intersection = %v", got)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("a and b should intersect")
	}
	c := Rect{5, 5, 7, 7}
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
	if !a.Intersection(c).Empty() {
		t.Fatal("intersection of disjoint rects should be empty")
	}
	// Touching edges count as intersecting (closed rectangles).
	d := Rect{4, 0, 8, 4}
	if !a.Intersects(d) {
		t.Fatal("edge-touching rects should intersect")
	}
	if a.Intersection(d).Area() != 0 {
		t.Fatal("edge intersection should have zero area")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{5, 5, 6, 6}
	got := a.Union(b)
	if got != (Rect{0, 0, 6, 6}) {
		t.Fatalf("Union = %v", got)
	}
	if a.Union(EmptyRect()) != a {
		t.Fatal("union with empty should be identity")
	}
	if EmptyRect().Union(b) != b {
		t.Fatal("union with empty should be identity")
	}
}

func TestBoundingRect(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {3, -2, 4, 0}, {-1, 0.5, 0, 2}}
	got := BoundingRect(rects)
	if got != (Rect{-1, -2, 4, 2}) {
		t.Fatalf("BoundingRect = %v", got)
	}
	if !BoundingRect(nil).Empty() {
		t.Fatal("bounding rect of nothing should be empty")
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.25, 0.75}}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(h), h)
	}
	if got := h.Area(); got != 1 {
		t.Fatalf("hull area = %g, want 1", got)
	}
	for _, p := range pts {
		if !h.Contains(p) {
			t.Errorf("hull should contain input point %v", p)
		}
	}
}

func TestConvexHullCollinear(t *testing.T) {
	h := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if h.Area() != 0 {
		t.Fatalf("collinear hull area = %g, want 0", h.Area())
	}
	if !h.Contains(Point{1.5, 1.5}) && len(h) >= 2 {
		// Two-vertex polygons contain the segment between them.
		t.Log("hull:", h)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Fatalf("hull of nothing = %v", h)
	}
	if h := ConvexHull([]Point{{1, 2}}); len(h) != 1 || h[0] != (Point{1, 2}) {
		t.Fatalf("hull of single point = %v", h)
	}
	if h := ConvexHull([]Point{{1, 2}, {1, 2}, {1, 2}}); len(h) != 1 {
		t.Fatalf("hull of repeated point = %v", h)
	}
}

func TestConvexHullOrientation(t *testing.T) {
	h := ConvexHull([]Point{{0, 0}, {4, 0}, {4, 3}, {0, 3}, {2, 5}})
	if len(h) < 3 {
		t.Fatalf("unexpected hull %v", h)
	}
	// All consecutive turns must be counter-clockwise.
	for i := range h {
		a, b, c := h[i], h[(i+1)%len(h)], h[(i+2)%len(h)]
		if cross(a, b, c) <= 0 {
			t.Fatalf("hull not strictly counter-clockwise at %v,%v,%v", a, b, c)
		}
	}
}

func TestHullOfRects(t *testing.T) {
	rects := []Rect{{0, 0, 2, 2}, {3, 3, 5, 5}}
	h := HullOfRects(rects)
	for _, r := range rects {
		for _, c := range r.Corners() {
			if !h.Contains(c) {
				t.Errorf("hull should contain corner %v", c)
			}
		}
	}
	// Hull area must be between union area and bounding rect area.
	ua := UnionArea(rects)
	ba := BoundingRect(rects).Area()
	if h.Area() < ua || h.Area() > ba {
		t.Fatalf("hull area %g outside [union %g, bounding %g]", h.Area(), ua, ba)
	}
}

func TestPolygonContainsBoundary(t *testing.T) {
	h := ConvexHull([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	for _, p := range []Point{{0, 0}, {2, 0}, {4, 4}, {0, 2}} {
		if !h.Contains(p) {
			t.Errorf("boundary point %v should be contained", p)
		}
	}
	for _, p := range []Point{{-0.01, 0}, {4.01, 4}, {2, 4.5}} {
		if h.Contains(p) {
			t.Errorf("outside point %v should not be contained", p)
		}
	}
}

func TestPolygonBoundingRect(t *testing.T) {
	h := Polygon{{1, 1}, {5, 2}, {3, 6}}
	if got := h.BoundingRect(); got != (Rect{1, 1, 5, 6}) {
		t.Fatalf("BoundingRect = %v", got)
	}
	if !(Polygon{}).BoundingRect().Empty() {
		t.Fatal("empty polygon should have empty bounding rect")
	}
}

func TestUnionAreaDisjoint(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {2, 2, 3, 3}}
	if got := UnionArea(rects); got != 2 {
		t.Fatalf("UnionArea = %g, want 2", got)
	}
}

func TestUnionAreaOverlap(t *testing.T) {
	rects := []Rect{{0, 0, 2, 2}, {1, 1, 3, 3}}
	if got := UnionArea(rects); got != 7 {
		t.Fatalf("UnionArea = %g, want 7", got)
	}
}

func TestUnionAreaNested(t *testing.T) {
	rects := []Rect{{0, 0, 10, 10}, {2, 2, 4, 4}}
	if got := UnionArea(rects); got != 100 {
		t.Fatalf("UnionArea = %g, want 100", got)
	}
}

func TestUnionAreaEmptyMembers(t *testing.T) {
	rects := []Rect{EmptyRect(), {0, 0, 1, 2}, EmptyRect()}
	if got := UnionArea(rects); got != 2 {
		t.Fatalf("UnionArea = %g, want 2", got)
	}
	if UnionArea(nil) != 0 {
		t.Fatal("UnionArea(nil) should be 0")
	}
}

func TestUnionRegion(t *testing.T) {
	u := Union{{0, 0, 1, 1}, {2, 0, 3, 1}}
	if !u.Contains(Point{0.5, 0.5}) || !u.Contains(Point{2.5, 0.5}) {
		t.Fatal("union should contain points of both rects")
	}
	if u.Contains(Point{1.5, 0.5}) {
		t.Fatal("union should not contain gap point")
	}
	if u.Area() != 2 {
		t.Fatalf("union area = %g, want 2", u.Area())
	}
	if u.BoundingRect() != (Rect{0, 0, 3, 1}) {
		t.Fatalf("union bounding rect = %v", u.BoundingRect())
	}
}

func TestDisjointCoverBasic(t *testing.T) {
	rects := []Rect{{0, 0, 2, 2}, {1, 1, 3, 3}}
	cover := DisjointCover(rects)
	assertValidCover(t, rects, cover)
}

func TestDisjointCoverDisjointInput(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {5, 5, 6, 6}, {2, -1, 3, 0}}
	cover := DisjointCover(rects)
	assertValidCover(t, rects, cover)
}

func TestDisjointCoverEmpty(t *testing.T) {
	if c := DisjointCover(nil); c != nil {
		t.Fatalf("cover of nothing = %v", c)
	}
	if c := DisjointCover([]Rect{EmptyRect()}); c != nil {
		t.Fatalf("cover of empty rect = %v", c)
	}
}

// assertValidCover checks the three disjoint-cover invariants: members are
// pairwise disjoint in area, total area equals the union area, and every
// member is inside the union.
func assertValidCover(t *testing.T, input, cover []Rect) {
	t.Helper()
	want := UnionArea(input)
	got := 0.0
	for _, r := range cover {
		got += r.Area()
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("cover area = %g, union area = %g", got, want)
	}
	for i := range cover {
		for j := i + 1; j < len(cover); j++ {
			if cover[i].Intersection(cover[j]).Area() > 1e-12 {
				t.Fatalf("cover members %v and %v overlap", cover[i], cover[j])
			}
		}
	}
	u := Union(input)
	for _, r := range cover {
		c := Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
		if !u.Contains(c) {
			t.Fatalf("cover member %v center outside union", r)
		}
	}
}

// randRects produces n random small rectangles inside [0,100]².
func randRects(rng *rand.Rand, n int) []Rect {
	out := make([]Rect, n)
	for i := range out {
		x := rng.Float64() * 90
		y := rng.Float64() * 90
		out[i] = RectWH(x, y, rng.Float64()*10+0.1, rng.Float64()*10+0.1)
	}
	return out
}

func TestDisjointCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rects := randRects(rng, 1+rng.Intn(6))
		assertValidCover(t, rects, DisjointCover(rects))
	}
}

func TestAreaOrderingProperty(t *testing.T) {
	// For any set of rectangles: union area ≤ hull area ≤ bounding rect
	// area. This is the irrelevant-information ordering of Fig 5.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		rects := randRects(rng, 1+rng.Intn(5))
		ua := UnionArea(rects)
		ha := HullOfRects(rects).Area()
		ba := BoundingRect(rects).Area()
		const eps = 1e-9
		if ua > ha+eps || ha > ba+eps {
			t.Fatalf("area ordering violated: union %g, hull %g, bounding %g (rects %v)",
				ua, ha, ba, rects)
		}
	}
}

func TestQuickUnionCommutes(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := RectWH(clamp(ax), clamp(ay), clampPos(aw), clampPos(ah))
		b := RectWH(clamp(bx), clamp(by), clampPos(bw), clampPos(bh))
		return a.Union(b) == b.Union(a) && a.Intersection(b) == b.Intersection(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := RectWH(clamp(ax), clamp(ay), clampPos(aw), clampPos(ah))
		b := RectWH(clamp(bx), clamp(by), clampPos(bw), clampPos(bh))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectionInsideBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := RectWH(clamp(ax), clamp(ay), clampPos(aw), clampPos(ah))
		b := RectWH(clamp(bx), clamp(by), clampPos(bw), clampPos(bh))
		i := a.Intersection(b)
		if i.Empty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// clamp maps an arbitrary float into a sane finite coordinate.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}

// clampPos maps an arbitrary float into a positive finite extent.
func clampPos(x float64) float64 {
	return math.Abs(clamp(x)) + 0.001
}

func TestUnionAreaMonteCarlo(t *testing.T) {
	// Cross-validate the sweep-based union area against Monte Carlo
	// sampling on random rectangle sets.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		rects := randRects(rng, 2+rng.Intn(5))
		want := UnionArea(rects)
		bound := BoundingRect(rects)
		if bound.Area() == 0 {
			continue
		}
		const samples = 20000
		hits := 0
		u := Union(rects)
		for i := 0; i < samples; i++ {
			p := Pt(
				bound.MinX+rng.Float64()*bound.Width(),
				bound.MinY+rng.Float64()*bound.Height(),
			)
			if u.Contains(p) {
				hits++
			}
		}
		got := float64(hits) / samples * bound.Area()
		// Monte Carlo error ~ area/sqrt(samples); allow 5 sigma.
		sigma := bound.Area() / math.Sqrt(samples)
		if math.Abs(got-want) > 5*sigma {
			t.Fatalf("trial %d: sweep area %g vs Monte Carlo %g (±%g)", trial, want, got, sigma)
		}
	}
}

// HullOfRects returns the convex hull of the corner points of the given
// rectangles. This is the bounding polygon merge procedure of Fig 5(b):
// the tightest convex region containing every input query rectangle.
func HullOfRects(rects []Rect) Polygon {
	pts := make([]Point, 0, 4*len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		c := r.Corners()
		pts = append(pts, c[0], c[1], c[2], c[3])
	}
	return ConvexHull(pts)
}
