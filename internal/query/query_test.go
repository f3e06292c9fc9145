package query

import (
	"math/rand"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/relation"
)

var testBounds = geom.R(0, 0, 100, 100)

func buildRelation(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rel := relation.MustNew(testBounds, 10, 10)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), []byte("payload"))
	}
	return rel
}

func TestRangeAnswer(t *testing.T) {
	rel := relation.MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(10, 10), nil)
	rel.Insert(geom.Pt(60, 60), nil)
	q := Range(1, geom.R(0, 0, 50, 50))
	ans := rel.Search(q.Region)
	if len(ans) != 1 {
		t.Fatalf("range query selected %d tuples, want 1", len(ans))
	}
}

// extract applies the query as its own extractor (§3.1) to a merged
// answer: it keeps the tuples inside the query's region, as the client's
// extraction pass does, and leaves the input slice as it was.
func extract(q Query, merged []relation.Tuple) []relation.Tuple {
	var out []relation.Tuple
	for _, t := range merged {
		if q.Region.Contains(t.Pos) {
			out = append(out, t)
		}
	}
	return out
}

func TestExtractIsSelfExtractor(t *testing.T) {
	rel := buildRelation(t, 300, 1)
	q1 := Range(1, geom.R(10, 10, 40, 40))
	q2 := Range(2, geom.R(30, 30, 60, 60))
	merged := Range(99, geom.R(10, 10, 60, 60)) // bounding rect of q1, q2
	mergedAns := rel.Search(merged.Region)
	for _, q := range []Query{q1, q2} {
		got := extract(q, mergedAns)
		want := rel.Search(q.Region)
		if len(got) != len(want) {
			t.Fatalf("extract(%v) returned %d tuples, direct answer has %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("extract mismatch at %d: %d vs %d", i, got[i].ID, want[i].ID)
			}
		}
	}
}

func TestExtractDoesNotModifyInput(t *testing.T) {
	rel := buildRelation(t, 100, 2)
	merged := rel.Search(testBounds)
	n := len(merged)
	extract(Range(2, geom.R(0, 0, 10, 10)), merged)
	if len(merged) != n {
		t.Fatal("extract must not modify its input")
	}
}

func TestMergeProcedureNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Procedures() {
		names[p.Name()] = true
	}
	for _, want := range []string{"bounding-rect", "bounding-polygon", "banded-hull", "exact"} {
		if !names[want] {
			t.Fatalf("missing merge procedure %q", want)
		}
	}
}

func TestBoundingRectMerge(t *testing.T) {
	qs := []Query{
		Range(1, geom.R(0, 0, 10, 10)),
		Range(2, geom.R(20, 30, 25, 40)),
	}
	m := BoundingRect{}.Merge(qs)
	if m.(geom.Rect) != geom.R(0, 0, 25, 40) {
		t.Fatalf("BoundingRect.Merge = %v", m)
	}
}

func TestExactMergeNoIrrelevantArea(t *testing.T) {
	qs := []Query{
		Range(1, geom.R(0, 0, 10, 10)),
		Range(2, geom.R(5, 5, 15, 15)),
		Range(3, geom.R(50, 50, 60, 60)),
	}
	m := Exact{}.Merge(qs)
	var rects []geom.Rect
	for _, q := range qs {
		rects = append(rects, q.Region.(geom.Rect))
	}
	want := geom.UnionArea(rects)
	if got := m.Area(); got != want {
		t.Fatalf("Exact merge area = %g, want union area %g", got, want)
	}
}

func TestMergedAnswersContainOriginalAnswers(t *testing.T) {
	// The completeness requirement of §3.1: ans(q) ⊆ ans(mrg(M)) for
	// every q in M, for every merge procedure.
	rel := buildRelation(t, 500, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		var qs []Query
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			qs = append(qs, Range(ID(i+1), geom.RectWH(x, y, rng.Float64()*20+1, rng.Float64()*20+1)))
		}
		for _, proc := range Procedures() {
			region := proc.Merge(qs)
			mergedIDs := map[uint64]bool{}
			for _, tu := range rel.Search(region) {
				mergedIDs[tu.ID] = true
			}
			for _, q := range qs {
				for _, tu := range rel.Search(q.Region) {
					if !mergedIDs[tu.ID] {
						t.Fatalf("%s: tuple %d in ans(%v) missing from merged answer",
							proc.Name(), tu.ID, q)
					}
				}
			}
		}
	}
}

func TestExtractorRecoversOriginalAnswer(t *testing.T) {
	// End-to-end extractor correctness (§3.1): for every merge
	// procedure, extracting from the merged answer equals the direct
	// answer.
	rel := buildRelation(t, 500, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		var qs []Query
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			qs = append(qs, Range(ID(i+1), geom.RectWH(x, y, rng.Float64()*20+1, rng.Float64()*20+1)))
		}
		for _, proc := range Procedures() {
			mergedAns := rel.Search(proc.Merge(qs))
			for _, q := range qs {
				got := extract(q, mergedAns)
				want := rel.Search(q.Region)
				if len(got) != len(want) {
					t.Fatalf("%s: extract(%v) has %d tuples, want %d",
						proc.Name(), q, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("%s: extract mismatch for %v", proc.Name(), q)
					}
				}
			}
		}
	}
}

func TestIrrelevantInfoOrdering(t *testing.T) {
	// Fig 5: irrelevant information decreases from bounding rectangle
	// to bounding polygon to exact (which has none).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var qs []Query
		var rects []geom.Rect
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			r := geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)
			qs = append(qs, Range(ID(i+1), r))
			rects = append(rects, r)
		}
		union := geom.UnionArea(rects)
		ra := BoundingRect{}.Merge(qs).Area()
		pa := BoundingPolygon{}.Merge(qs).Area()
		ea := Exact{}.Merge(qs).Area()
		const eps = 1e-9
		if !(ra+eps >= pa && pa+eps >= ea) {
			t.Fatalf("area ordering violated: rect %g, polygon %g, exact %g", ra, pa, ea)
		}
		if diff := ea - union; diff > eps || diff < -eps {
			t.Fatalf("exact merge area %g differs from union %g", ea, union)
		}
	}
}

func TestCoversForAllProcedures(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		var qs []Query
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			qs = append(qs, Range(ID(i+1), geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)))
		}
		for _, proc := range Procedures() {
			m := proc.Merge(qs)
			for _, q := range qs {
				if !Covers(m, q.Region) {
					t.Fatalf("%s merge of %d queries does not cover %v", proc.Name(), len(qs), q)
				}
			}
		}
	}
}

func TestCoversNegative(t *testing.T) {
	m := geom.R(0, 0, 10, 10)
	if Covers(m, geom.R(5, 5, 15, 15)) {
		t.Fatal("partial overlap should not count as covering")
	}
	if !Covers(m, geom.R(2, 2, 8, 8)) {
		t.Fatal("nested rect should be covered")
	}
	u := geom.Union{geom.R(0, 0, 10, 10), geom.R(20, 0, 30, 10)}
	if Covers(u, geom.R(5, 0, 25, 10)) {
		t.Fatal("rect spanning the union gap should not be covered")
	}
	if !Covers(u, geom.R(21, 1, 29, 9)) {
		t.Fatal("rect inside one union member should be covered")
	}
}

func TestQueryString(t *testing.T) {
	q := Range(7, geom.R(0, 0, 1, 1))
	if got := q.String(); got == "" {
		t.Fatal("String should not be empty")
	}
}

func TestMergeProceduresAcceptNonRectInputs(t *testing.T) {
	// Merged queries can themselves be re-merged (e.g. incremental
	// maintenance): every procedure must accept polygon and union
	// footprints as inputs.
	poly := Query{ID: 1, Region: geom.ConvexHull([]geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10},
	})}
	uni := Query{ID: 2, Region: geom.Union{geom.R(20, 20, 30, 30), geom.R(40, 40, 50, 50)}}
	rect := Range(3, geom.R(5, 5, 25, 25))
	qs := []Query{poly, uni, rect}
	for _, proc := range Procedures() {
		m := proc.Merge(qs)
		for _, q := range qs {
			if !Covers(m, q.Region) {
				t.Fatalf("%s merge does not cover %v", proc.Name(), q)
			}
		}
	}
}

func TestCoversPolygonContainer(t *testing.T) {
	hull := geom.ConvexHull([]geom.Point{
		{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100},
	})
	if !Covers(hull, geom.R(10, 10, 90, 90)) {
		t.Fatal("hull should cover the inner rect")
	}
	if Covers(hull, geom.R(50, 50, 150, 150)) {
		t.Fatal("hull should not cover an overflowing rect")
	}
	// Union query against a polygon container.
	if !Covers(hull, geom.Union{geom.R(1, 1, 5, 5), geom.R(90, 90, 99, 99)}) {
		t.Fatal("hull should cover both union members")
	}
	if Covers(hull, geom.Union{geom.R(1, 1, 5, 5), geom.R(90, 90, 120, 99)}) {
		t.Fatal("hull should reject a union with an escaping member")
	}
}

func TestCoversPolygonQueryFallback(t *testing.T) {
	// A polygon *query* is covered via its bounding rectangle
	// (conservative).
	tri := geom.ConvexHull([]geom.Point{{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 15, Y: 20}})
	if !Covers(geom.R(0, 0, 30, 30), tri) {
		t.Fatal("rect should cover the triangle query")
	}
	if Covers(geom.R(0, 0, 12, 30), tri) {
		t.Fatal("rect should not cover the triangle's bounding box")
	}
}

func TestRegionStringForms(t *testing.T) {
	for _, q := range []Query{
		Range(1, geom.R(0, 0, 1, 1)),
		{ID: 2, Region: geom.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}},
		{ID: 3, Region: geom.Union{geom.R(0, 0, 1, 1)}},
	} {
		if q.String() == "" {
			t.Fatalf("empty String for %+v", q)
		}
	}
}

func TestCoversEmptyRect(t *testing.T) {
	if !Covers(geom.R(0, 0, 1, 1), geom.EmptyRect()) {
		t.Fatal("anything covers the empty rect")
	}
	if !regionContainsRect(geom.Union{geom.R(0, 0, 1, 1)}, geom.EmptyRect()) {
		t.Fatal("union covers the empty rect")
	}
}

func TestBandedHullBetweenRectAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var qs []Query
		for i := 0; i < 2+rng.Intn(4); i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			qs = append(qs, Range(ID(i+1), geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)))
		}
		ra := BoundingRect{}.Merge(qs).Area()
		ba := BandedHull{}.Merge(qs).Area()
		ea := Exact{}.Merge(qs).Area()
		const eps = 1e-9
		if !(ra+eps >= ba && ba+eps >= ea) {
			t.Fatalf("banded hull area %g outside [exact %g, rect %g]", ba, ea, ra)
		}
		m := BandedHull{}.Merge(qs)
		for _, q := range qs {
			if !Covers(m, q.Region) {
				t.Fatalf("banded hull does not cover %v", q)
			}
		}
	}
}

func TestBandedHullShape(t *testing.T) {
	// An L-shape: tall narrow left column plus short wide bottom row.
	qs := []Query{
		Range(1, geom.R(0, 0, 2, 10)),
		Range(2, geom.R(0, 0, 10, 2)),
	}
	m := BandedHull{}.Merge(qs)
	// The bounding rect has area 100; the L-shape's banded hull is
	// exactly the union here (band [0,2] spans x 0..10, band [2,10]
	// spans x 0..2): 20 + 16 = 36.
	if got := m.Area(); got != 36 {
		t.Fatalf("banded hull area = %g, want 36", got)
	}
	if !m.Contains(geom.Pt(9, 1)) || !m.Contains(geom.Pt(1, 9)) {
		t.Fatal("hull should contain both arms of the L")
	}
	if m.Contains(geom.Pt(9, 9)) {
		t.Fatal("hull should exclude the empty corner")
	}
}

func TestBandedHullEndToEndExtraction(t *testing.T) {
	rel := buildRelation(t, 500, 12)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		var qs []Query
		for i := 0; i < 3; i++ {
			x, y := rng.Float64()*80, rng.Float64()*80
			qs = append(qs, Range(ID(i+1), geom.RectWH(x, y, rng.Float64()*20+1, rng.Float64()*20+1)))
		}
		merged := rel.Search(BandedHull{}.Merge(qs))
		for _, q := range qs {
			got := extract(q, merged)
			want := rel.Search(q.Region)
			if len(got) != len(want) {
				t.Fatalf("banded hull extract has %d tuples, want %d", len(got), len(want))
			}
		}
	}
}
