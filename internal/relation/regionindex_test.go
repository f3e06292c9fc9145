package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/geom"
)

// bruteMatch is the oracle for RegionIndex: every tuple against every
// region, in tuple order.
func bruteMatch(regions []geom.Region, ts []Tuple) ([][]Tuple, [][]uint64) {
	tuples := make([][]Tuple, len(regions))
	ids := make([][]uint64, len(regions))
	for i, region := range regions {
		for _, t := range ts {
			if region.Contains(t.Pos) {
				tuples[i] = append(tuples[i], t)
				ids[i] = append(ids[i], t.ID)
			}
		}
	}
	return tuples, ids
}

// regionMix draws n regions (at least five) over b, of every shape a
// plan can carry: rectangles inside, overhanging and wholly outside the
// bounds, hulls, unions, degenerate (zero-width) and empty regions, and
// one that covers the whole plane.
func regionMix(rng *rand.Rand, b geom.Rect, n int) []geom.Region {
	w, h := b.Width(), b.Height()
	rect := func() geom.Rect {
		x := b.MinX - 0.2*w + rng.Float64()*1.4*w
		y := b.MinY - 0.2*h + rng.Float64()*1.4*h
		return geom.R(x, y, x+rng.Float64()*0.3*w, y+rng.Float64()*0.3*h)
	}
	regions := []geom.Region{
		geom.EmptyRect(),
		geom.Union{},
		geom.R(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)),
		geom.R(b.MinX+0.5*w, b.MinY, b.MinX+0.5*w, b.MaxY), // zero width
		geom.R(b.MaxX+w, b.MaxY+h, b.MaxX+2*w, b.MaxY+2*h), // outside
	}
	for len(regions) < n {
		switch rng.Intn(4) {
		case 0:
			r1, r2 := rect(), rect()
			regions = append(regions, geom.ConvexHull([]geom.Point{
				{X: r1.MinX, Y: r1.MinY}, {X: r1.MaxX, Y: r1.MaxY}, {X: r2.MinX, Y: r2.MaxY}, {X: r2.MaxX, Y: r2.MinY}}))
		case 1:
			regions = append(regions, geom.Union{rect(), rect(), geom.EmptyRect()})
		default:
			regions = append(regions, rect())
		}
	}
	return regions
}

// pointMix draws n tuples over b with ascending ids: most inside, some
// outside the bounds on every side, some on region corners, and the
// bounds' own corners.
func pointMix(rng *rand.Rand, b geom.Rect, regions []geom.Region, n int) []Tuple {
	w, h := b.Width(), b.Height()
	var ts []Tuple
	add := func(p geom.Point) { ts = append(ts, Tuple{ID: uint64(len(ts)) + 1, Pos: p}) }
	add(geom.Pt(b.MinX, b.MinY))
	add(geom.Pt(b.MaxX, b.MaxY))
	add(geom.Pt(math.Inf(1), b.MinY))
	for len(ts) < n {
		switch rng.Intn(5) {
		case 0:
			add(geom.Pt(b.MinX-w+rng.Float64()*3*w, b.MinY-h+rng.Float64()*3*h))
		case 1:
			br := regions[rng.Intn(len(regions))].BoundingRect()
			if !br.Empty() && !math.IsInf(br.MinX, 0) {
				add(geom.Pt(br.MinX, br.MaxY))
			}
		default:
			add(geom.Pt(b.MinX+rng.Float64()*w, b.MinY+rng.Float64()*h))
		}
	}
	return ts
}

// TestRegionIndexMatchesBruteForce pins MatchAppend and MatchIDsAppend to
// the all-pairs oracle on square and 256×1 bounds, with points and
// regions inside, on and beyond the bounds, and every region shape; an
// index over no regions, or no tuples, matches nothing.
func TestRegionIndexMatchesBruteForce(t *testing.T) {
	NewRegionIndex(geom.R(0, 0, 10, 10), nil).MatchAppend([]Tuple{{ID: 1, Pos: geom.Pt(1, 1)}}, nil)
	for _, b := range []geom.Rect{geom.R(0, 0, 100, 100), geom.R(0, 0, 256, 1), geom.R(-5, 10, 5, 1000)} {
		for _, n := range []int{5, 12, 300} {
			t.Run(fmt.Sprintf("%v/regions=%d", b, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				regions := regionMix(rng, b, n)
				ts := pointMix(rng, b, regions, 2000)
				x := NewRegionIndex(b, regions)
				wantT, wantID := bruteMatch(regions, ts)
				gotT := make([][]Tuple, len(regions))
				gotID := make([][]uint64, len(regions))
				x.MatchAppend(nil, gotT)
				x.MatchAppend(ts, gotT)
				x.MatchIDsAppend(ts, gotID)
				if !reflect.DeepEqual(gotT, wantT) {
					t.Fatal("MatchAppend differs from the brute-force match")
				}
				if !reflect.DeepEqual(gotID, wantID) {
					t.Fatal("MatchIDsAppend differs from the brute-force match")
				}
				// Appending to filled entries extends them and leaves
				// every other entry's storage alone.
				x.MatchIDsAppend(ts[:10], gotID)
				_, more := bruteMatch(regions, ts[:10])
				for i := range gotID {
					if want := append(wantID[i], more[i]...); !reflect.DeepEqual(gotID[i], want) {
						t.Fatalf("region %d: second append gave %v, want %v", i, gotID[i], want)
					}
				}
			})
		}
	}
}

// TestRegionIndexGridShape checks the sizing rule: a few cells per mean
// region extent on each axis, non-square for a strip, capped per axis,
// and coarsened when a few huge regions would file under too many cells.
func TestRegionIndexGridShape(t *testing.T) {
	strip := NewRegionIndex(geom.R(0, 0, 256, 1), []geom.Region{geom.R(0, 0, 32, 1), geom.R(100, 0, 132, 1)})
	if g := strip.cells.grid; g.nx != 32 || g.ny != regionCellsPerExtent {
		t.Fatalf("strip grid %dx%d, want 32x%d", g.nx, g.ny, regionCellsPerExtent)
	}
	tiny := []geom.Region{geom.R(0, 0, 1e-9, 1e-9)}
	if g := NewRegionIndex(geom.R(0, 0, 1, 1), tiny).cells.grid; g.nx != regionGridMaxSide || g.ny != regionGridMaxSide {
		t.Fatalf("tiny-region grid %dx%d, want the %d cap", g.nx, g.ny, regionGridMaxSide)
	}
	var mixed []geom.Region
	for i := 0; i < 10; i++ {
		mixed = append(mixed, geom.R(0, 0, 100, 100), geom.R(float64(i), 0, float64(i)+0.5, 0.5), geom.R(float64(i), 1, float64(i)+0.5, 1.5))
	}
	x := NewRegionIndex(geom.R(0, 0, 100, 100), mixed)
	if n := len(x.cells.items); n > regionEntryBudget*len(mixed) {
		t.Fatalf("%d entries for %d regions, budget %d each", n, len(mixed), regionEntryBudget)
	}
}

// TestDeltaIndexConcurrentSearch probes one fresh snapshot from several
// goroutines at once, so under -race the batch grid's lazy build is
// checked against every reader.
func TestDeltaIndexConcurrentSearch(t *testing.T) {
	rel, mark := deltaWorld(500, 800, 40, 13)
	di := rel.Delta(mark)
	region := geom.R(20, 20, 70, 60)
	want := naiveDeltaSearch(rel, region, mark)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := di.SearchAppend(region, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent SearchAppend: %d tuples, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRegionIndex times the index's two costs on plans shaped like
// the benchmark's: building it over a plan's merged regions (paid once
// per plan) and matching one period's events against it (paid every
// round). Regions are squares of 2–8% of the side, three quarters of
// them in eight clusters; events are uniform.
func BenchmarkRegionIndex(b *testing.B) {
	bounds := geom.R(0, 0, 1000, 1000)
	for _, n := range []int{360, 764} {
		rng := rand.New(rand.NewSource(int64(n)))
		var centers []geom.Point
		for i := 0; i < 8; i++ {
			centers = append(centers, geom.Pt(100+rng.Float64()*800, 100+rng.Float64()*800))
		}
		regions := make([]geom.Region, n)
		for i := range regions {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			if i%4 != 0 {
				c := centers[rng.Intn(len(centers))]
				p = geom.Pt(c.X+rng.NormFloat64()*60, c.Y+rng.NormFloat64()*60)
			}
			s := 20 + rng.Float64()*60
			regions[i] = geom.R(p.X, p.Y, p.X+s, p.Y+s)
		}
		events := make([]Tuple, 1200)
		for i := range events {
			events[i] = Tuple{ID: uint64(i + 1), Pos: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
		}
		b.Run(fmt.Sprintf("build/regions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewRegionIndex(bounds, regions)
			}
		})
		b.Run(fmt.Sprintf("match/regions=%d/events=%d", n, len(events)), func(b *testing.B) {
			x := NewRegionIndex(bounds, regions)
			out := make([][]Tuple, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(out)
				x.MatchAppend(events, out)
			}
		})
	}
}
