package relation

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/geom"
)

var testBounds = geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func TestNewValidation(t *testing.T) {
	if _, err := New(geom.EmptyRect(), 4, 4); err == nil {
		t.Fatal("empty bounds should be rejected")
	}
	if _, err := New(testBounds, 0, 4); err == nil {
		t.Fatal("zero grid dimension should be rejected")
	}
	if _, err := New(testBounds, 4, 4); err != nil {
		t.Fatalf("valid relation rejected: %v", err)
	}
}

func TestInsertAndSearch(t *testing.T) {
	rel := MustNew(testBounds, 8, 8)
	id1 := rel.Insert(geom.Pt(10, 10), []byte("a"))
	id2 := rel.Insert(geom.Pt(50, 50), []byte("bb"))
	rel.Insert(geom.Pt(90, 90), []byte("ccc"))
	if rel.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rel.Len())
	}
	got := rel.Search(geom.R(0, 0, 60, 60))
	if len(got) != 2 {
		t.Fatalf("Search returned %d tuples, want 2", len(got))
	}
	if got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("Search order = %v, %v; want ids %d, %d", got[0].ID, got[1].ID, id1, id2)
	}
}

func TestSearchBoundaryInclusive(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(25, 25), nil)
	// The query rectangle's corner exactly on the point: closed
	// semantics must include it.
	if n := rel.Count(geom.R(25, 25, 30, 30)); n != 1 {
		t.Fatalf("Count = %d, want 1 (closed rectangle semantics)", n)
	}
	if n := rel.Count(geom.R(20, 20, 25, 25)); n != 1 {
		t.Fatalf("Count = %d, want 1 (closed rectangle semantics)", n)
	}
}

func TestOutOfBoundsTuples(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(-10, -10), nil)
	rel.Insert(geom.Pt(200, 200), nil)
	if n := rel.Count(geom.R(-20, -20, 300, 300)); n != 2 {
		t.Fatalf("out-of-bounds tuples should be searchable, got %d", n)
	}
	if n := rel.Count(geom.R(0, 0, 100, 100)); n != 0 {
		t.Fatalf("out-of-bounds tuples should not match in-bounds query, got %d", n)
	}
}

func TestSearchPolygonRegion(t *testing.T) {
	rel := MustNew(testBounds, 8, 8)
	rel.Insert(geom.Pt(10, 10), nil)
	rel.Insert(geom.Pt(30, 10), nil)
	rel.Insert(geom.Pt(10, 30), nil)
	// Triangle covering only the first point.
	tri := geom.ConvexHull([]geom.Point{geom.Pt(5, 5), geom.Pt(15, 5), geom.Pt(5, 15), geom.Pt(15, 15)})
	if n := rel.Count(tri); n != 1 {
		t.Fatalf("polygon Count = %d, want 1", n)
	}
}

func TestSearchUnionRegion(t *testing.T) {
	rel := MustNew(testBounds, 8, 8)
	rel.Insert(geom.Pt(10, 10), nil)
	rel.Insert(geom.Pt(90, 90), nil)
	rel.Insert(geom.Pt(50, 50), nil)
	u := geom.Union{geom.R(5, 5, 15, 15), geom.R(85, 85, 95, 95)}
	if n := rel.Count(u); n != 2 {
		t.Fatalf("union Count = %d, want 2", n)
	}
}

func TestGridMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := MustNew(testBounds, 10, 10)
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		rel.Insert(pts[i], nil)
	}
	for trial := 0; trial < 50; trial++ {
		q := geom.RectFromPoints(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
		)
		want := 0
		for _, p := range pts {
			if q.Contains(p) {
				want++
			}
		}
		if got := rel.Count(q); got != want {
			t.Fatalf("grid Count = %d, linear scan = %d for %v", got, want, q)
		}
	}
}

func TestTupleSize(t *testing.T) {
	tu := Tuple{ID: 1, Pos: geom.Pt(0, 0), Payload: []byte("hello")}
	if got := tu.Size(); got != 24+5 {
		t.Fatalf("Size = %d, want 29", got)
	}
}

func TestSizeBytes(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(10, 10), []byte("xx"))
	rel.Insert(geom.Pt(20, 20), []byte("yyyy"))
	got := rel.SizeBytes(geom.R(0, 0, 50, 50))
	if got != (24+2)+(24+4) {
		t.Fatalf("SizeBytes = %d, want 54", got)
	}
}

func TestInsertedSince(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(1, 1), nil)
	mark := rel.MaxID()
	rel.Insert(geom.Pt(2, 2), nil)
	rel.Insert(geom.Pt(3, 3), nil)
	delta := rel.InsertedSince(mark)
	if len(delta) != 2 {
		t.Fatalf("InsertedSince returned %d tuples, want 2", len(delta))
	}
	if delta[0].ID >= delta[1].ID {
		t.Fatal("delta should be in id order")
	}
}

func TestConcurrentInsertAndSearch(t *testing.T) {
	rel := MustNew(testBounds, 10, 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					rel.Count(geom.R(0, 0, 50, 50))
					ts := rel.Search(geom.R(0, 0, 50, 50))
					for k := 1; k < len(ts); k++ {
						if ts[k-1].ID >= ts[k].ID {
							t.Errorf("Search under concurrent inserts: ids %d, %d out of order", ts[k-1].ID, ts[k].ID)
							return
						}
					}
				} else {
					rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), nil)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	want := 0
	for w := 0; w < 8; w++ {
		for i := 0; i < 200; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if rel.Len() != want {
		t.Fatalf("Len = %d after concurrent inserts, want %d", rel.Len(), want)
	}
}

func TestUniformEstimator(t *testing.T) {
	u := Uniform{Density: 2, BytesPerTuple: 10}
	got := u.SizeBytes(geom.R(0, 0, 5, 4))
	if got != 400 {
		t.Fatalf("Uniform.SizeBytes = %g, want 400", got)
	}
}

func TestExactEstimator(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(10, 10), []byte("abc"))
	e := Exact{Rel: rel}
	if got := e.SizeBytes(geom.R(0, 0, 20, 20)); got != 27 {
		t.Fatalf("Exact.SizeBytes = %g, want 27", got)
	}
	if got := e.SizeBytes(geom.R(50, 50, 60, 60)); got != 0 {
		t.Fatalf("Exact.SizeBytes = %g, want 0", got)
	}
}

func TestHistogramValidation(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	if _, err := BuildHistogram(rel, 0, 4); err == nil {
		t.Fatal("zero histogram dimension should be rejected")
	}
}

func TestHistogramWholeSpace(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rng := rand.New(rand.NewSource(3))
	total := 0.0
	for i := 0; i < 200; i++ {
		rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), []byte("pp"))
		total += 26
	}
	h, err := BuildHistogram(rel, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := h.SizeBytes(testBounds)
	if math.Abs(got-total) > 1e-6 {
		t.Fatalf("whole-space histogram estimate = %g, want %g", got, total)
	}
}

func TestHistogramTracksDensitySkew(t *testing.T) {
	// Put 90% of the data in the left half; the histogram must estimate
	// the left-half query far larger than the right-half query, whereas
	// Uniform cannot.
	rel := MustNew(testBounds, 4, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 900; i++ {
		rel.Insert(geom.Pt(rng.Float64()*50, rng.Float64()*100), nil)
	}
	for i := 0; i < 100; i++ {
		rel.Insert(geom.Pt(50+rng.Float64()*50, rng.Float64()*100), nil)
	}
	h, err := BuildHistogram(rel, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	left := h.SizeBytes(geom.R(0, 0, 50, 100))
	right := h.SizeBytes(geom.R(50, 0, 100, 100))
	if left < 5*right {
		t.Fatalf("histogram should capture skew: left = %g, right = %g", left, right)
	}
}

func TestHistogramOutsideBounds(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rel.Insert(geom.Pt(10, 10), nil)
	h, err := BuildHistogram(rel, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.SizeBytes(geom.R(200, 200, 300, 300)); got != 0 {
		t.Fatalf("estimate outside bounds = %g, want 0", got)
	}
}

func TestHistogramApproximatesExact(t *testing.T) {
	rel := MustNew(testBounds, 10, 10)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), nil)
	}
	h, err := BuildHistogram(rel, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	ex := Exact{Rel: rel}
	for trial := 0; trial < 20; trial++ {
		q := geom.RectWH(rng.Float64()*60, rng.Float64()*60, 20+rng.Float64()*20, 20+rng.Float64()*20)
		got := h.SizeBytes(q)
		want := ex.SizeBytes(q)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Fatalf("histogram estimate %g deviates %.0f%% from exact %g for %v",
				got, rel*100, want, q)
		}
	}
}

func TestDeleteBasics(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	id1 := rel.Insert(geom.Pt(10, 10), []byte("a"))
	id2 := rel.Insert(geom.Pt(20, 20), []byte("b"))
	if !rel.Delete(id1) {
		t.Fatal("delete of existing tuple should succeed")
	}
	if rel.Delete(id1) {
		t.Fatal("double delete should report false")
	}
	if rel.Delete(9999) {
		t.Fatal("delete of unknown id should report false")
	}
	if rel.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", rel.Len())
	}
	got := rel.Search(testBounds)
	if len(got) != 1 || got[0].ID != id2 {
		t.Fatalf("Search after delete = %v", got)
	}
	if n := len(rel.All()); n != 1 {
		t.Fatalf("All returned %d tuples, want 1", n)
	}
}

func TestDeletedSinceWatermark(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	id1 := rel.Insert(geom.Pt(10, 10), nil)
	id2 := rel.Insert(geom.Pt(20, 20), nil)
	mark := rel.MaxID()
	rel.Delete(id1)
	rel.Delete(id2)
	deleted := rel.DeletedSince(mark)
	if len(deleted) != 2 {
		t.Fatalf("DeletedSince = %d tuples, want 2", len(deleted))
	}
	if deleted[0].ID != id1 || deleted[1].ID != id2 {
		t.Fatalf("deletion order wrong: %v", deleted)
	}
	// Deleted tuples keep their position for region scoping.
	if deleted[0].Pos != geom.Pt(10, 10) {
		t.Fatalf("deleted tuple lost its position: %v", deleted[0].Pos)
	}
	// A fresh watermark sees nothing.
	if got := rel.DeletedSince(rel.MaxID()); len(got) != 0 {
		t.Fatalf("fresh watermark sees %d deletions", len(got))
	}
}

func TestDeleteAdvancesWatermark(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	id := rel.Insert(geom.Pt(10, 10), nil)
	before := rel.MaxID()
	rel.Delete(id)
	if rel.MaxID() <= before {
		t.Fatal("delete should advance the watermark")
	}
	// New inserts get ids beyond the deletion seq — never reused.
	id2 := rel.Insert(geom.Pt(20, 20), nil)
	if id2 <= rel.DeletedSince(0)[0].ID {
		t.Fatalf("id %d reused after deletion", id2)
	}
}

func TestSnapshotCompactsTombstones(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	keep := rel.Insert(geom.Pt(10, 10), nil)
	gone := rel.Insert(geom.Pt(20, 20), nil)
	rel.Delete(gone)
	var buf bytes.Buffer
	if err := rel.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restored Len = %d, want 1", restored.Len())
	}
	if got := restored.Search(testBounds); len(got) != 1 || got[0].ID != keep {
		t.Fatalf("restored tuples = %v", got)
	}
}

func TestCompactDropsTombstones(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	rng := rand.New(rand.NewSource(15))
	var ids []uint64
	for i := 0; i < 300; i++ {
		ids = append(ids, rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), []byte("z")))
	}
	for i := 0; i < 150; i++ {
		rel.Delete(ids[i])
	}
	before := rel.Search(testBounds)
	mark := rel.MaxID()
	rel.Compact(rel.MaxID())
	after := rel.Search(testBounds)
	if len(before) != len(after) {
		t.Fatalf("Compact changed search results: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID {
			t.Fatalf("Compact reordered tuple ids at %d", i)
		}
	}
	if rel.MaxID() != mark {
		t.Fatalf("Compact changed the watermark: %d vs %d", rel.MaxID(), mark)
	}
	if got := rel.DeletedSince(0); len(got) != 0 {
		t.Fatalf("Compact should clear the deletion journal, kept %d", len(got))
	}
	// Post-compact inserts and deletes work normally.
	id := rel.Insert(geom.Pt(50, 50), nil)
	if !rel.Delete(id) {
		t.Fatal("delete after compact failed")
	}
}

// TestCompactKeepsJournalAboveMark compacts mid-period: inserts and
// deletes interleave, Compact runs with a retention mark in the middle of
// the journal, and DeletedSince must answer identically before and after
// for every watermark from the mark up, the ones between two deletes and
// between a delete and an insert included. Deletes after the compaction
// journal on top of the kept entries.
func TestCompactKeepsJournalAboveMark(t *testing.T) {
	// build replays one seeded stream of inserts and deletes.
	build := func() *Relation {
		rel := MustNew(testBounds, 4, 4)
		rng := rand.New(rand.NewSource(16))
		var live []uint64
		for i := 0; i < 400; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				rel.Delete(live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			live = append(live, rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), []byte("j")))
		}
		return rel
	}
	top := build().MaxID()
	for _, mark := range []uint64{0, top / 3, top / 2, top - 1, top} {
		r := build()
		want := make(map[uint64][]Tuple)
		for m := mark; m <= top; m++ {
			want[m] = r.DeletedSince(m)
		}
		r.Compact(mark)
		for m := mark; m <= top; m++ {
			if got := r.DeletedSince(m); !reflect.DeepEqual(got, want[m]) {
				t.Fatalf("mark %d: DeletedSince(%d) after Compact = %d tuples, before %d", mark, m, len(got), len(want[m]))
			}
		}
		if got := r.DeletedSince(0); !reflect.DeepEqual(got, want[mark]) {
			t.Fatalf("mark %d: the journal kept %d entries, want the %d above the mark", mark, len(got), len(want[mark]))
		}
		id := r.Insert(geom.Pt(5, 5), nil)
		r.Delete(id)
		if got := r.DeletedSince(mark); len(got) != len(want[mark])+1 || got[len(got)-1].ID != id {
			t.Fatalf("mark %d: a delete after Compact journals %v", mark, tupleIDs(got))
		}
	}
}
