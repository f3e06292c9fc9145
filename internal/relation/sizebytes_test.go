package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"qsub/internal/geom"
)

// scanSize is SizeBytes as it was before the byte aggregate: a tuple scan
// of every cell the rectangle touches.
func scanSize(r *Relation, q geom.Rect) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scanBytes(q)
}

// bruteSize sums every live tuple inside q without touching the index.
func bruteSize(r *Relation, q geom.Rect) int {
	n := 0
	for _, t := range r.All() {
		if q.Contains(t.Pos) {
			n += t.Size()
		}
	}
	return n
}

// gridLine returns a coordinate on one of the lines of an nx-column grid
// over testBounds, where cell membership flips.
func gridLine(rng *rand.Rand, nx int) float64 {
	return testBounds.MinX + testBounds.Width()*float64(rng.Intn(nx+1))/float64(nx)
}

// insertVaried inserts n tuples with payloads of 0–40 bytes: most inside
// testBounds, some exactly on grid lines or on the bounds' edges, some
// outside the bounds (near, far and at ±Inf). It returns the ids.
func insertVaried(rng *rand.Rand, n, nx int, insert func(geom.Point, []byte) uint64) []uint64 {
	ids := make([]uint64, 0, n)
	for k := 0; k < n; k++ {
		var p geom.Point
		switch rng.Intn(10) {
		case 0:
			p = geom.Pt(gridLine(rng, nx), gridLine(rng, nx))
		case 1:
			p = geom.Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		case 2:
			far := []float64{-1e30, 1e30, math.Inf(-1), math.Inf(1), rng.Float64() * 100}
			p = geom.Pt(far[rng.Intn(len(far))], far[rng.Intn(len(far))])
		default:
			p = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		ids = append(ids, insert(p, make([]byte, rng.Intn(41))))
	}
	return ids
}

// randomRect draws one of the shapes the differential test must cover.
func randomRect(rng *rand.Rand, nx int, pts []Tuple) geom.Rect {
	switch rng.Intn(9) {
	case 0: // tiny: inside one cell
		x, y := rng.Float64()*100, rng.Float64()*100
		return geom.RectWH(x, y, rng.Float64()*0.5, rng.Float64()*0.5)
	case 1: // huge: everything, beyond the bounds or beyond the int range
		far := []float64{150, 1e6, 1e30, math.Inf(1)}
		d := far[rng.Intn(len(far))]
		return geom.R(-d, -d, d, d)
	case 2: // degenerate: a point or a segment, on a tuple when there is one
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if len(pts) > 0 {
			p = pts[rng.Intn(len(pts))].Pos
		}
		if rng.Intn(2) == 0 {
			return geom.R(p.X, p.Y, p.X, p.Y)
		}
		return geom.R(p.X, p.Y-rng.Float64()*60, p.X, p.Y+rng.Float64()*60)
	case 3: // empty
		if rng.Intn(2) == 0 {
			return geom.EmptyRect()
		}
		return geom.R(60, 60, 40, 40)
	case 4: // wholly outside the bounds
		return geom.RectWH(110+rng.Float64()*50, -80+rng.Float64()*200, rng.Float64()*40, rng.Float64()*40)
	case 5: // partly outside
		return geom.RectWH(-50+rng.Float64()*60, 70+rng.Float64()*20, rng.Float64()*120, rng.Float64()*120)
	case 6: // edges exactly on grid lines
		x0, x1, y0, y1 := gridLine(rng, nx), gridLine(rng, nx), gridLine(rng, nx), gridLine(rng, nx)
		return geom.R(math.Min(x0, x1), math.Min(y0, y1), math.Max(x0, x1), math.Max(y0, y1))
	case 7: // corners exactly on tuples (closed-rectangle semantics)
		if len(pts) > 1 {
			a, b := pts[rng.Intn(len(pts))].Pos, pts[rng.Intn(len(pts))].Pos
			return geom.R(math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Max(a.X, b.X), math.Max(a.Y, b.Y))
		}
		fallthrough
	default: // ordinary: several cells wide
		x, y := rng.Float64()*100, rng.Float64()*100
		return geom.RectWH(x, y, rng.Float64()*70, rng.Float64()*70)
	}
}

// checkSizes compares every size entry point against both oracles over
// random rectangles.
func checkSizes(t *testing.T, rel *Relation, rng *rand.Rand, nx int, stage string) {
	t.Helper()
	pts := rel.All()
	for k := 0; k < 250; k++ {
		q := randomRect(rng, nx, pts)
		want := bruteSize(rel, q)
		if got := scanSize(rel, q); got != want {
			t.Fatalf("%s: scan oracle %d, brute force %d for %v", stage, got, want, q)
		}
		if got := rel.SizeBytesRect(q); got != want {
			t.Fatalf("%s: SizeBytesRect(%v) = %d, want %d", stage, q, got, want)
		}
		if got := rel.SizeBytes(q); got != want {
			t.Fatalf("%s: SizeBytes(%v) = %d, want %d", stage, q, got, want)
		}
		e := Exact{Rel: rel}
		if a, b := e.SizeBytesRect(q), e.SizeBytes(q); a != float64(want) || b != float64(want) {
			t.Fatalf("%s: Exact rect path %g, region path %g, want %d for %v", stage, a, b, want, q)
		}
	}
}

// TestSizeBytesRectMatchesScan is the differential test of the byte
// aggregate: after every kind of write the index sees, SizeBytesRect must
// equal a tuple scan.
func TestSizeBytesRectMatchesScan(t *testing.T) {
	type build func() (*Relation, int)
	grid := func(nx, ny int) build {
		return func() (*Relation, int) { return MustNew(testBounds, nx, ny), nx }
	}
	builds := map[string]build{
		"grid16x16": grid(16, 16),
		"grid7x3":   grid(7, 3),
		"grid64x1":  grid(64, 1),
		"grid2x2":   grid(2, 2),
		"grid1x1":   grid(1, 1),
	}
	for name, mk := range builds {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				rel, nx := mk()
				checkSizes(t, rel, rng, nx, "empty relation")

				ids := insertVaried(rng, 1500, nx, rel.Insert)
				checkSizes(t, rel, rng, nx, "after inserts")

				rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
				for _, id := range ids[:500] {
					if !rel.Delete(id) {
						t.Fatalf("delete %d failed", id)
					}
				}
				if rel.Delete(ids[0]) {
					t.Fatal("second delete of the same id succeeded")
				}
				checkSizes(t, rel, rng, nx, "after deletes")

				rel.Compact(rel.MaxID())
				checkSizes(t, rel, rng, nx, "after Compact")

				more := insertVaried(rng, 300, nx, rel.Insert)
				for _, id := range more[:100] {
					rel.Delete(id)
				}
				checkSizes(t, rel, rng, nx, "after writes on the compacted relation")
			})
		}
	}
}

// TestSizeBytesRectAfterPersistence rebuilds a relation through the
// snapshot path, which populates the index by restore and not by Insert,
// and checks the aggregate followed — and keeps following the writes made
// on the restored relation.
func TestSizeBytesRectAfterPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := MustNew(testBounds, 16, 16)
	ids := insertVaried(rng, 800, 16, rel.Insert)
	for _, id := range ids[:200] {
		rel.Delete(id)
	}
	var snap bytes.Buffer
	if err := rel.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Restore on a different grid, so nothing carries over by accident.
	got, err := ReadSnapshot(&snap, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, rel, got)
	checkSizes(t, got, rng, 9, "after ReadSnapshot")
	for k := 0; k < 200; k++ {
		q := randomRect(rng, 16, nil)
		if a, b := rel.SizeBytesRect(q), got.SizeBytesRect(q); a != b {
			t.Fatalf("original %d, restored %d for %v", a, b, q)
		}
	}

	more := insertVaried(rng, 400, 9, got.Insert)
	for _, id := range append(more[:100:100], ids[200:300]...) {
		if !got.Delete(id) {
			t.Fatalf("delete %d on the restored relation failed", id)
		}
	}
	checkSizes(t, got, rng, 9, "after writes on the restored relation")
}

// TestSizeBytesRectConcurrent runs probes against concurrent inserts and
// deletes; under -race it checks the aggregate shares the relation's
// locking, and every probe must stay within what the writes allow.
func TestSizeBytesRectConcurrent(t *testing.T) {
	rel := MustNew(testBounds, 16, 16)
	payload := make([]byte, 8)
	size := Tuple{Payload: payload}.Size()
	const writers, perWriter = 4, 400
	all := geom.R(-1, -1, 101, 101)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []uint64
			for k := 0; k < perWriter; k++ {
				mine = append(mine, rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), payload))
				if k%4 == 3 {
					rel.Delete(mine[rng.Intn(len(mine))])
				}
			}
		}(w)
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for k := 0; k < 300; k++ {
				if n := rel.SizeBytesRect(all); n < 0 || n > writers*perWriter*size || n%size != 0 {
					t.Errorf("whole-relation probe returned %d", n)
					return
				}
				rel.SizeBytesRect(randomRect(rng, 16, nil))
			}
		}(p)
	}
	wg.Wait()
	if got, want := rel.SizeBytesRect(all), rel.Len()*size; got != want {
		t.Fatalf("after the writers: SizeBytesRect = %d, want %d live tuples × %d bytes = %d", got, rel.Len(), size, want)
	}
	rng := rand.New(rand.NewSource(5))
	checkSizes(t, rel, rng, 16, "after concurrent writes")
}

var sizeSink int

// paperRelation is the relation of the plan-paper workload: n uniform
// tuples with 16-byte payloads on a 64×64 grid over 1000×1000.
func paperRelation(rng *rand.Rand, n int) *Relation {
	rel := MustNew(geom.R(0, 0, 1000, 1000), 64, 64)
	payload := make([]byte, 16)
	for k := 0; k < n; k++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), payload)
	}
	return rel
}

// paperRects draws n query rectangles the way the plan-paper workload
// does (workload.DefaultConfig, which this package cannot import): 70% in
// four clusters with a normal spread of 40 around a uniform origin, the
// rest uniform, extents 20–80.
func paperRects(rng *rand.Rand, n int) []geom.Rect {
	clamp := func(v float64) float64 { return math.Max(0, math.Min(1000, v)) }
	clustered := (7*n + 5) / 10
	perCluster := max((clustered+2)/4, 1)
	rects := make([]geom.Rect, n)
	var origin geom.Point
	for i := range rects {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if i < clustered {
			if i%perCluster == 0 {
				origin = c
			}
			c = geom.Pt(clamp(origin.X+rng.NormFloat64()*40), clamp(origin.Y+rng.NormFloat64()*40))
		}
		w, h := 20+rng.Float64()*60, 20+rng.Float64()*60
		rects[i] = geom.R(clamp(c.X-w/2), clamp(c.Y-h/2), clamp(c.X+w/2), clamp(c.Y+h/2))
	}
	return rects
}

// BenchmarkExactSizeBytes compares the aggregate path with the scan it
// replaced, on the relation of the plan-paper workload (20k uniform
// tuples, 64×64 grid), for rectangles 1, 10 and 30 cells wide — and, as
// pair-bbox, for what exact PairMerge asks in place: the bounding
// rectangle of every pair of a 48-query plan-paper population, most of
// which span clusters and have a border ring of hundreds of cells.
func BenchmarkExactSizeBytes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rel := paperRelation(rng, 20000)
	cell := rel.Bounds().Width() / 64
	type leg struct {
		name string
		qs   []geom.Rect
	}
	var legs []leg
	for _, cells := range []int{1, 10, 30} {
		w := float64(cells) * cell
		qs := make([]geom.Rect, 256)
		for k := range qs {
			qs[k] = geom.RectWH(rng.Float64()*(1000-w), rng.Float64()*(1000-w), w, w)
		}
		legs = append(legs, leg{fmt.Sprintf("%d-cell-wide", cells), qs})
	}
	var pairs []geom.Rect
	population := paperRects(rng, 48)
	for i, a := range population {
		for _, c := range population[:i] {
			pairs = append(pairs, a.Union(c))
		}
	}
	legs = append(legs, leg{"pair-bbox", pairs})
	for _, l := range legs {
		for _, path := range []struct {
			name string
			size func(geom.Rect) int
		}{
			{"aggregate", rel.SizeBytesRect},
			{"scan", func(q geom.Rect) int { return scanSize(rel, q) }},
		} {
			b.Run(l.name+"/"+path.name, func(b *testing.B) {
				for k := 0; k < b.N; k++ {
					sizeSink += path.size(l.qs[k%len(l.qs)])
				}
			})
		}
	}
}
