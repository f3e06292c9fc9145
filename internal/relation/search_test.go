package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qsub/internal/geom"
)

// bruteSearch is the search oracle: every tuple of ts inside the region,
// in the order of ts, without touching any index.
func bruteSearch(ts []Tuple, region geom.Region) []Tuple {
	var out []Tuple
	for _, t := range ts {
		if region.Contains(t.Pos) {
			out = append(out, t)
		}
	}
	return out
}

// oracleRegions is the region table of the search oracle: rectangles
// from one cell to the whole relation and past its bounds, degenerate and
// NaN rectangles, polygons and unions.
func oracleRegions(rng *rand.Rand) map[string]geom.Region {
	regions := map[string]geom.Region{
		"rect/cell":      geom.R(41, 41, 44, 44),
		"rect/whole":     testBounds,
		"rect/beyond":    geom.R(-50, -50, 150, 150),
		"rect/outside":   geom.R(120, -30, 160, 130),
		"rect/point":     geom.R(50, 50, 50, 50),
		"rect/line":      geom.R(0, 30, 100, 30),
		"rect/empty":     geom.EmptyRect(),
		"rect/nan":       geom.Rect{MinX: math.NaN(), MinY: 0, MaxX: 50, MaxY: 50},
		"polygon/tri":    geom.ConvexHull([]geom.Point{geom.Pt(5, 5), geom.Pt(95, 20), geom.Pt(40, 90)}),
		"polygon/far":    geom.ConvexHull([]geom.Point{geom.Pt(60, 60), geom.Pt(95, 70), geom.Pt(80, 95)}),
		"polygon/beyond": geom.ConvexHull([]geom.Point{geom.Pt(-40, 50), geom.Pt(50, -40), geom.Pt(140, 50), geom.Pt(50, 140)}),
		"polygon/empty":  geom.Polygon(nil),
		"union/apart":    geom.Union{geom.R(5, 5, 25, 25), geom.R(70, 60, 95, 98)},
		"union/overlap":  geom.Union{geom.R(10, 10, 60, 60), geom.R(40, 40, 90, 90), geom.R(-20, 80, 30, 120)},
	}
	for i := 0; i < 6; i++ {
		a := geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
		b := geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
		regions[fmt.Sprintf("rect/random%d", i)] = geom.RectFromPoints(a, b)
	}
	return regions
}

// oracleRelation fills an 8 × 8 relation with n tuples of varied payload,
// a tenth of them outside the bounds and a few at NaN positions, then
// tombstones every fifth one.
func oracleRelation(rng *rand.Rand, n int) *Relation {
	rel := MustNew(testBounds, 8, 8)
	var ids []uint64
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		switch {
		case i%10 == 3:
			p = geom.Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		case i%97 == 5:
			p = geom.Pt(math.NaN(), rng.Float64()*100)
		}
		ids = append(ids, rel.Insert(p, make([]byte, rng.Intn(9))))
	}
	for i := 0; i < len(ids); i += 5 {
		rel.Delete(ids[i])
	}
	return rel
}

// checkSearch holds every read path of the relation to the oracle over
// All() for one region: Search, SearchAppend behind a prefix, Count and
// SizeBytes, ids and order.
func checkSearch(t *testing.T, rel *Relation, region geom.Region) {
	t.Helper()
	want := bruteSearch(rel.All(), region)
	if got := rel.Search(region); !sameTuples(got, want) {
		t.Fatalf("Search: %d tuples %v, want %d %v", len(got), tupleIDs(got), len(want), tupleIDs(want))
	}
	prefix := []Tuple{{ID: 1 << 62}, {ID: 7}}
	got := rel.SearchAppend(region, prefix)
	if !sameTuples(got[:2], prefix) {
		t.Fatalf("SearchAppend clobbered its prefix: %v", tupleIDs(got[:2]))
	}
	if !sameTuples(got[2:], want) {
		t.Fatalf("SearchAppend: %v, want %v", tupleIDs(got[2:]), tupleIDs(want))
	}
	if got := rel.Count(region); got != len(want) {
		t.Fatalf("Count = %d, want %d", got, len(want))
	}
	size := 0
	for _, t := range want {
		size += t.Size()
	}
	if got := rel.SizeBytes(region); got != size {
		t.Fatalf("SizeBytes = %d, want %d", got, size)
	}
}

// sameTuples compares ids, positions bit for bit (a NaN position equals
// itself) and payloads, in order.
func sameTuples(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, func(s, t Tuple) bool {
		return s.ID == t.ID && math.Float64bits(s.Pos.X) == math.Float64bits(t.Pos.X) &&
			math.Float64bits(s.Pos.Y) == math.Float64bits(t.Pos.Y) && bytes.Equal(s.Payload, t.Payload)
	})
}

func tupleIDs(ts []Tuple) []uint64 {
	ids := make([]uint64, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// TestSearchMatchesBruteForce is the relation's search oracle: every read
// path against a brute force over All(), on rectangles, polygons and
// unions, over tombstones, tuples outside the bounds and NaN positions,
// before and after Compact and a snapshot round trip. The slot-order
// gather is what keeps the results in id order, so a search that skipped
// the slot sort fails here on every multi-cell region.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	rel := oracleRelation(rng, 2000)
	regions := oracleRegions(rng)
	var snap bytes.Buffer
	if err := rel.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&snap, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for stage, r := range map[string]*Relation{"live": rel, "restored": restored} {
		for name, region := range regions {
			t.Run(stage+"/"+name, func(t *testing.T) { checkSearch(t, r, region) })
		}
	}
	rel.Compact(rel.MaxID())
	for name, region := range regions {
		t.Run("compacted/"+name, func(t *testing.T) { checkSearch(t, rel, region) })
	}
}

// TestDeltaSearchMatchesBruteForce is the same oracle for the inserted
// batch of a DeltaIndex, below and above the batch-grid cutover.
func TestDeltaSearchMatchesBruteForce(t *testing.T) {
	for _, nAfter := range []int{deltaGridMinBatch - 1, deltaGridMinBatch, 900} {
		rng := rand.New(rand.NewSource(int64(nAfter)))
		rel := oracleRelation(rng, 300)
		mark := rel.MaxID()
		for i := 0; i < nAfter; i++ {
			p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			if i%10 == 3 {
				p = geom.Pt(rng.Float64()*300-100, rng.Float64()*300-100)
			}
			if i%31 == 7 {
				p = geom.Pt(rng.Float64()*100, math.NaN())
			}
			id := rel.Insert(p, make([]byte, rng.Intn(9)))
			if i%6 == 0 {
				rel.Delete(id)
			}
		}
		di := rel.Delta(mark)
		for name, region := range oracleRegions(rng) {
			t.Run(fmt.Sprintf("batch=%d/%s", len(di.Inserted()), name), func(t *testing.T) {
				want := bruteSearch(di.Inserted(), region)
				if fromRel := naiveDeltaSearch(rel, region, mark); !sameTuples(want, fromRel) {
					t.Fatalf("snapshot %v disagrees with the relation %v", tupleIDs(want), tupleIDs(fromRel))
				}
				prefix := []Tuple{{ID: 1 << 62}}
				got := di.SearchAppend(region, prefix)
				if got[0].ID != 1<<62 {
					t.Fatalf("SearchAppend clobbered its prefix: %v", got[0])
				}
				if !sameTuples(got[1:], want) {
					t.Fatalf("SearchAppend: %v, want %v", tupleIDs(got[1:]), tupleIDs(want))
				}
			})
		}
	}
}

// TestDeleteFindsSlotByID: Delete finds a tuple's slot by binary search
// over the id-ascending store, so every id that names no live tuple must
// report false and change nothing: never assigned (0, a gap a delete's
// watermark step left, past MaxID) or already tombstoned, also after
// Compact and a snapshot round trip.
func TestDeleteFindsSlotByID(t *testing.T) {
	rel := MustNew(testBounds, 4, 4)
	a := rel.Insert(geom.Pt(10, 10), []byte("a"))
	b := rel.Insert(geom.Pt(20, 20), []byte("b"))
	if !rel.Delete(a) {
		t.Fatal("delete of a live tuple failed")
	}
	gap := rel.MaxID() // the delete's watermark step, never a tuple id
	c := rel.Insert(geom.Pt(30, 30), []byte("c"))
	check := func(stage string, r *Relation, live ...uint64) {
		t.Helper()
		journal := len(r.DeletedSince(0))
		for _, id := range []uint64{0, a, gap, r.MaxID() + 1, math.MaxUint64} {
			if r.Delete(id) {
				t.Fatalf("%s: Delete(%d) of an id naming no live tuple reported true", stage, id)
			}
		}
		if got := tupleIDs(r.All()); !reflect.DeepEqual(got, live) {
			t.Fatalf("%s: live ids %v, want %v", stage, got, live)
		}
		if r.Len() != len(live) || len(r.DeletedSince(0)) != journal {
			t.Fatalf("%s: failed deletes changed Len %d or the journal", stage, r.Len())
		}
	}
	check("live", rel, b, c)
	rel.Compact(rel.MaxID())
	check("compacted", rel, b, c)
	if !rel.Delete(c) || rel.Delete(c) {
		t.Fatal("compacted relation: delete, then double delete, of the last tuple")
	}
	check("compacted, last deleted", rel, b)
	var snap bytes.Buffer
	if err := rel.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&snap, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored, b)
	if !restored.Delete(b) || restored.Len() != 0 || restored.Count(testBounds) != 0 {
		t.Fatal("restored relation: delete of its one live tuple")
	}
}

// BenchmarkSearchAppend measures one relation probe into a reused
// buffer, the per-merged-query step of a full publish: a small rectangle
// (a few cells), a large one (a third of the space) and a polygon, over
// uniform 20k and 100k relations on the 25 × 25 grid the daemon uses.
func BenchmarkSearchAppend(b *testing.B) {
	bounds := geom.R(0, 0, 1000, 1000)
	regions := []struct {
		name   string
		region geom.Region
	}{
		{"rect=small", geom.R(400, 400, 480, 480)},
		{"rect=large", geom.R(100, 200, 700, 750)},
		{"polygon", geom.ConvexHull([]geom.Point{geom.Pt(150, 100), geom.Pt(800, 300), geom.Pt(600, 850), geom.Pt(200, 700)})},
	}
	for _, n := range []int{20000, 100000} {
		rng := rand.New(rand.NewSource(1))
		rel := MustNew(bounds, 25, 25)
		payload := make([]byte, 40)
		for i := 0; i < n; i++ {
			rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), payload)
		}
		for _, r := range regions {
			b.Run(fmt.Sprintf("%s/n=%d", r.name, n), func(b *testing.B) {
				var buf []Tuple
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = rel.SearchAppend(r.region, buf[:0])
				}
				b.ReportMetric(float64(len(buf)), "tuples/op")
			})
		}
	}
}

// BenchmarkInsert measures one Insert into a growing relation.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := MustNew(geom.R(0, 0, 1000, 1000), 25, 25)
	payload := make([]byte, 40)
	pts := make([]geom.Point, 1<<16)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel.Insert(pts[i&(len(pts)-1)], payload)
	}
}
