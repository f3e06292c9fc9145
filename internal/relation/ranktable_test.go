package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qsub/internal/geom"
)

// checkRankTable compares the table of rects with SizeBytesRect of the
// union over singletons, pairs, random subsets in random order and the
// whole list, and checks the table's size: at most 2n+1 prefix lines per
// axis.
func checkRankTable(t *testing.T, rel *Relation, rects []geom.Rect, rng *rand.Rand, stage string) *RankTable {
	t.Helper()
	table := rel.NewRankTable(rects)
	if table == nil {
		t.Fatalf("%s: no table for %v", stage, rects)
	}
	n := len(rects)
	checkPieces(t, table, n)
	check := func(set []int) {
		t.Helper()
		union := geom.EmptyRect()
		for _, q := range set {
			union = union.Union(rects[q])
		}
		want := float64(rel.SizeBytesRect(union))
		if brute := float64(bruteSize(rel, union)); brute != want {
			t.Fatalf("%s: SizeBytesRect(%v) = %v, brute force %v", stage, union, want, brute)
		}
		if got := table.MergedSize(set); got != want {
			t.Fatalf("%s: MergedSize(%v) = %v, SizeBytesRect(%v) = %v\nrects %v", stage, set, got, union, want, rects)
		}
		// The same set in another order.
		shuffled := append([]int(nil), set...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := table.MergedSize(shuffled); got != want {
			t.Fatalf("%s: MergedSize(%v) = %v, want %v", stage, shuffled, got, want)
		}
	}
	for i := 0; i < n; i++ {
		check([]int{i})
		if got, want := table.Size(i), float64(rel.SizeBytesRect(rects[i])); got != want {
			t.Fatalf("%s: Size(%d) = %v, SizeBytesRect(%v) = %v", stage, i, got, rects[i], want)
		}
		for j := i + 1; j < n; j++ {
			check([]int{i, j})
		}
	}
	for k := 0; k < 50 && n > 0; k++ {
		check(rng.Perm(n)[:1+rng.Intn(n)])
	}
	if got := table.MergedSize(nil); got != 0 {
		t.Fatalf("%s: MergedSize(nil) = %v", stage, got)
	}
	return table
}

// checkPieces fails unless the table of n rectangles has at most 2n+1
// prefix lines per axis: one cut per lower edge and one above each upper
// edge.
func checkPieces(t *testing.T, table *RankTable, n int) {
	t.Helper()
	if cols, rows := table.stride, len(table.prefix)/table.stride; cols > 2*n+1 || rows > 2*n+1 {
		t.Fatalf("%d rectangles make %d×%d prefix lines, more than %d per axis", n, cols, rows, 2*n+1)
	}
}

// sharedEdgeRects draws n rectangles of every shape randomRect knows and
// then makes a third of them reuse edges of the others, so coordinates
// repeat across the list: equal edges, abutting rectangles, duplicates.
func sharedEdgeRects(rng *rand.Rand, n, nx int, pts []Tuple) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = randomRect(rng, nx, pts)
	}
	for k := 0; k < n/3; k++ {
		a, b := rects[rng.Intn(n)], &rects[rng.Intn(n)]
		if a.Empty() {
			continue
		}
		switch rng.Intn(6) {
		case 0:
			*b = a // duplicate
		case 1:
			b.MinX, b.MaxX = a.MaxX, a.MaxX+rng.Float64()*20 // abuts a on the right
		case 2:
			b.MinY, b.MaxY = a.MinY, a.MaxY // same rows
		case 3:
			b.MinX, b.MaxX = a.MinX, a.MinX // zero width on a's left edge
		case 4:
			// Signed zeros: −0 and +0 are one coordinate.
			b.MinX, b.MaxX = math.Copysign(0, -1), max(b.MaxX, 0)
			b.MinY, b.MaxY = min(b.MinY, 0), 0
		case 5:
			// Infinite edges: open to one side.
			b.MaxX, b.MinY = math.Inf(1), math.Inf(-1)
		}
	}
	return rects
}

// mid returns the midpoint of [lo, hi], or 50 when that is NaN (the
// interval runs from −Inf to +Inf).
func mid(lo, hi float64) float64 {
	if m := (lo + hi) / 2; !math.IsNaN(m) {
		return m
	}
	return 50
}

// TestRankTableMatchesSizeBytesRect is the seeded differential test of
// the rank table: over several grids, with tuples on grid lines, on
// rectangle edges and one float past them, at ±0, outside the bounds and
// at ±Inf, with signed-zero, infinite and zero-width edges, after deletes
// and after
// Compact, every sampled subset's table size equals SizeBytesRect of the
// union — and a table built earlier keeps answering for the relation as
// it was (the snapshot rule).
func TestRankTableMatchesSizeBytesRect(t *testing.T) {
	for _, grid := range [][2]int{{16, 16}, {7, 3}, {64, 1}, {2, 2}, {1, 1}} {
		t.Run(fmt.Sprintf("%dx%d", grid[0], grid[1]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(grid[0]*100 + grid[1])))
			rel := MustNew(testBounds, grid[0], grid[1])
			ids := insertVaried(rng, 600, grid[0], rel.Insert)
			for round := 0; round < 6; round++ {
				rects := sharedEdgeRects(rng, rng.Intn(40), grid[0], rel.All())
				before := checkRankTable(t, rel, rects, rng, fmt.Sprintf("round %d", round))
				var want []float64
				for i := range rects {
					want = append(want, before.Size(i))
				}

				// Put tuples exactly on rectangle edges and corners and
				// on the floats just outside them, where the cuts are,
				// plus some at ±0; delete a fifth of what is there.
				up, down := math.Inf(1), math.Inf(-1)
				for _, q := range rects {
					if !q.Empty() && rng.Intn(2) == 0 {
						midX, midY := mid(q.MinX, q.MaxX), mid(q.MinY, q.MaxY)
						for _, p := range []geom.Point{
							{X: q.MinX, Y: q.MaxY}, {X: q.MaxX, Y: midY},
							{X: math.Nextafter(q.MaxX, up), Y: midY}, {X: math.Nextafter(q.MinX, down), Y: midY},
							{X: midX, Y: math.Nextafter(q.MaxY, up)}, {X: midX, Y: math.Nextafter(q.MinY, down)},
						} {
							ids = append(ids, rel.Insert(p, make([]byte, rng.Intn(9))))
						}
					}
				}
				for _, p := range []geom.Point{{X: 0, Y: 0}, {X: math.Copysign(0, -1), Y: 50}, {X: 50, Y: math.Copysign(0, -1)}} {
					ids = append(ids, rel.Insert(p, make([]byte, 1+rng.Intn(9))))
				}
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				for _, id := range ids[:len(ids)/5] {
					rel.Delete(id)
				}
				ids = ids[len(ids)/5:]
				if round == 3 {
					rel.Compact()
				}

				for i := range rects {
					if got := before.Size(i); got != want[i] {
						t.Fatalf("round %d: a built table changed with the relation: Size(%d) %v → %v", round, i, want[i], got)
					}
				}
				checkRankTable(t, rel, rects, rng, fmt.Sprintf("round %d, after writes", round))
			}
		})
	}
}

// TestRankTableDeclines pins the case the table leaves to the probe path,
// a rectangle with a NaN edge, and the table of an empty list.
func TestRankTableDeclines(t *testing.T) {
	rects := []geom.Rect{geom.R(10, 10, 40, 40), geom.R(30, 30, 60, 60)}
	grid := MustNew(testBounds, 8, 8)
	grid.Insert(geom.Pt(35, 35), nil)
	if table := grid.NewRankTable(append(rects, geom.R(0, 0, math.NaN(), 5))); table != nil {
		t.Fatalf("NaN edge built a table: %+v", table)
	}
	if table := grid.NewRankTable(nil); table == nil || table.MergedSize(nil) != 0 {
		t.Fatalf("empty list: table %+v", table)
	}
}

// fuzzCoords is the coordinate alphabet of FuzzRankTable. Rectangle edges
// and tuple positions draw from the same few values, so edges coincide
// with each other, with tuples and with the lines of the 8×8 grid over
// testBounds (0, 12.5, 25, … 100), inside and outside the bounds.
var fuzzCoords = [16]float64{
	math.Inf(-1), -1e30, -20, 0, 12.5, 13, 25, 40, 50, 62.5, 75, 99.5, 100, 130, 1e30, math.Inf(1),
}

// fuzzNudge moves the coordinate v of tuple k onto the float just above
// or below it, or a zero onto −0, so tuples land exactly on rectangle
// edges and on the cuts one float past them.
func fuzzNudge(v float64, k int) float64 {
	switch k % 4 {
	case 1:
		return math.Nextafter(v, math.Inf(1))
	case 2:
		return math.Nextafter(v, math.Inf(-1))
	case 3:
		return math.Copysign(v, -1) * math.Copysign(1, v) // −0 for 0, v otherwise
	}
	return v
}

// FuzzRankTable decodes a rectangle list and a tuple list from the input
// (two bytes per rectangle, one per tuple, a nibble per coordinate) and
// checks every singleton, every pair and the whole list against
// SizeBytesRect. Reversed edges give empty rectangles, equal ones
// zero-width rectangles, and every odd rectangle has its zero edges at −0;
// tuple coordinates are nudged by fuzzNudge; a tuple byte's neighbour
// decides whether it is deleted again.
func FuzzRankTable(f *testing.F) {
	f.Add([]byte{4, 0x36, 0x38, 0x6a, 0x8c, 0x33, 0x77, 0x11, 0x36, 0x6a, 0x38, 0xff, 0x00})
	f.Add([]byte{2, 0x0f, 0x0f, 0xc3, 0x3c, 0x44, 0xcc})
	f.Add([]byte{0, 0x55})
	f.Add([]byte{3, 0x3c, 0x3c, 0x33, 0x33, 0xf3, 0x0c, 0x33, 0x33, 0x33, 0x33, 0xcc, 0xcc, 0xcc, 0xcc, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 24
		data = data[1:]
		var rects []geom.Rect
		for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
			edge := func(c byte) float64 {
				if v := fuzzCoords[c]; v != 0 || len(rects)%2 == 0 {
					return v
				}
				return math.Copysign(0, -1)
			}
			rects = append(rects, geom.Rect{
				MinX: edge(data[0] >> 4), MaxX: edge(data[0] & 15),
				MinY: edge(data[1] >> 4), MaxY: edge(data[1] & 15),
			})
		}
		rel := MustNew(testBounds, 8, 8)
		for k, b := range data {
			p := geom.Pt(fuzzNudge(fuzzCoords[b>>4], k), fuzzNudge(fuzzCoords[b&15], k/4))
			id := rel.Insert(p, make([]byte, k%5))
			if k+1 < len(data) && data[k+1]%4 == 0 {
				rel.Delete(id)
			}
		}
		table := rel.NewRankTable(rects)
		if table == nil {
			t.Fatalf("no table for %v", rects)
		}
		checkPieces(t, table, len(rects))
		all := make([]int, len(rects))
		whole := geom.EmptyRect()
		for i, a := range rects {
			all[i] = i
			whole = whole.Union(a)
			if got, want := table.Size(i), float64(rel.SizeBytesRect(a)); got != want {
				t.Fatalf("Size(%d) = %v, SizeBytesRect(%v) = %v", i, got, a, want)
			}
			for j, b := range rects[:i] {
				if got, want := table.MergedSize([]int{i, j}), float64(rel.SizeBytesRect(a.Union(b))); got != want {
					t.Fatalf("MergedSize(%d, %d) = %v, SizeBytesRect(%v) = %v", i, j, got, a.Union(b), want)
				}
			}
		}
		if got, want := table.MergedSize(all), float64(rel.SizeBytesRect(whole)); got != want {
			t.Fatalf("MergedSize(all) = %v, SizeBytesRect(%v) = %v", got, whole, want)
		}
	})
}

var tableSink *RankTable

// BenchmarkRankTableBuild is one NewRankTable over a 48-query plan-paper
// population: the pass over the tuples under the population's bounding
// box plus the prefix sums, on 20k and on 100k tuples.
func BenchmarkRankTableBuild(b *testing.B) {
	for _, tuples := range []int{20000, 100000} {
		b.Run(fmt.Sprintf("tuples=%d/n=48", tuples), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rel := paperRelation(rng, tuples)
			rects := paperRects(rng, 48)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				tableSink = rel.NewRankTable(rects)
			}
		})
	}
}
