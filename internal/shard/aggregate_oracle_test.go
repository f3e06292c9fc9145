package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/workload"
)

// aggregateMap is the reference Aggregate is pinned against: the pass as
// it ran on a map from cell to a growing slice of representatives, each
// Rep's member list appended to and sorted at the end.
func aggregateMap(qs []query.Query, slack float64) Aggregation {
	n := len(qs)
	agg := Aggregation{RepOf: make([]int, n)}
	if n == 0 {
		return agg
	}
	rects := make([]geom.Rect, n)
	bounds := geom.EmptyRect()
	for i, q := range qs {
		rects[i] = q.Region.BoundingRect()
		bounds = bounds.Union(rects[i])
	}
	if slack <= 0 {
		slack = 1.0 / 128
	}
	pitchX := bounds.Width() * slack
	pitchY := bounds.Height() * slack
	quant := func(v, lo, pitch float64) int32 {
		if pitch <= 0 {
			return 0
		}
		return int32((v - lo) / pitch)
	}
	repAt := make(map[sig]int, n)
	for i, r := range rects {
		s := sig{
			quant(r.MinX, bounds.MinX, pitchX), quant(r.MinY, bounds.MinY, pitchY),
			quant(r.MaxX, bounds.MinX, pitchX), quant(r.MaxY, bounds.MinY, pitchY),
		}
		ri, ok := repAt[s]
		if !ok {
			ri = len(agg.Reps)
			repAt[s] = ri
			agg.Reps = append(agg.Reps, Rep{Rect: r})
		}
		agg.Reps[ri].Rect = agg.Reps[ri].Rect.Union(r)
		agg.Reps[ri].Members = append(agg.Reps[ri].Members, i)
		agg.RepOf[i] = ri
	}
	if len(agg.Reps) > 1 {
		absorbCoveredMap(&agg, bounds, pitchX, pitchY)
	}
	agg.Collapsed = n - len(agg.Reps)
	return agg
}

func absorbCoveredMap(agg *Aggregation, bounds geom.Rect, pitchX, pitchY float64) {
	reps := agg.Reps
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reps[order[a]].Rect.Area() > reps[order[b]].Rect.Area()
	})
	cw := bounds.Width() / coverGridSide
	ch := bounds.Height() / coverGridSide
	cellOf := func(r geom.Rect) int {
		cx, cy := 0, 0
		if cw > 0 {
			cx = int(((r.MinX+r.MaxX)/2 - bounds.MinX) / cw)
			if cx >= coverGridSide {
				cx = coverGridSide - 1
			}
		}
		if ch > 0 {
			cy = int(((r.MinY+r.MaxY)/2 - bounds.MinY) / ch)
			if cy >= coverGridSide {
				cy = coverGridSide - 1
			}
		}
		return cy*coverGridSide + cx
	}
	grid := make(map[int][]int)
	insert := func(ri int) {
		r := reps[ri].Rect
		x0, x1, y0, y1 := 0, 0, 0, 0
		if cw > 0 {
			x0 = clampCell(int((r.MinX - bounds.MinX) / cw))
			x1 = clampCell(int((r.MaxX - bounds.MinX) / cw))
		}
		if ch > 0 {
			y0 = clampCell(int((r.MinY - bounds.MinY) / ch))
			y1 = clampCell(int((r.MaxY - bounds.MinY) / ch))
		}
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				cell := cy*coverGridSide + cx
				grid[cell] = append(grid[cell], ri)
			}
		}
	}
	absorbedInto := make([]int, len(reps))
	for i := range absorbedInto {
		absorbedInto[i] = -1
	}
	for _, ri := range order {
		r := reps[ri].Rect
		found := -1
		probes := 0
		for _, ci := range grid[cellOf(r)] {
			if absorbedInto[ci] >= 0 {
				continue
			}
			probes++
			if probes > aggCellCandidates {
				break
			}
			c := reps[ci].Rect
			c.MinX -= pitchX
			c.MinY -= pitchY
			c.MaxX += pitchX
			c.MaxY += pitchY
			if c.ContainsRect(r) {
				found = ci
				break
			}
		}
		if found >= 0 {
			absorbedInto[ri] = found
			reps[found].Rect = reps[found].Rect.Union(r)
			reps[found].Members = append(reps[found].Members, reps[ri].Members...)
			continue
		}
		insert(ri)
	}
	newIndex := make([]int, len(reps))
	var out []Rep
	for i := range reps {
		if absorbedInto[i] >= 0 {
			newIndex[i] = -1
			continue
		}
		newIndex[i] = len(out)
		sort.Ints(reps[i].Members)
		out = append(out, reps[i])
	}
	resolve := func(i int) int {
		for absorbedInto[i] >= 0 {
			i = absorbedInto[i]
		}
		return newIndex[i]
	}
	for q := range agg.RepOf {
		agg.RepOf[q] = resolve(agg.RepOf[q])
	}
	agg.Reps = out
}

// rectQueries wraps rectangles as range queries.
func rectQueries(rects []geom.Rect) []query.Query {
	qs := make([]query.Query, len(rects))
	for i, r := range rects {
		qs[i] = query.Range(query.ID(i), r)
	}
	return qs
}

// crowdedCell is a workload whose center cell holds more than
// aggCellCandidates surviving representatives: 400 × 400 squares around
// one point, shifted apart by more than the pitch so none contains
// another, and small rectangles inside many of them at once, so both the
// cap and the order a cell's candidates are met in decide where a small
// one goes.
func crowdedCell(rng *rand.Rand) []geom.Rect {
	rects := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(999, 999, 1000, 1000)}
	for i := 0; i < 200; i++ {
		x, y := 110+rng.Float64()*380, 110+rng.Float64()*380
		rects = append(rects, geom.R(x, y, x+400, y+400))
	}
	for i := 0; i < 60; i++ {
		x, y := 495+rng.Float64()*8, 495+rng.Float64()*8
		rects = append(rects, geom.R(x, y, x+1+rng.Float64()*4, y+1+rng.Float64()*4))
	}
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return rects
}

// TestAggregateMatchesMapOracle is the seeded differential test of the
// flat cover grid against the map it replaced: Reps, RepOf and Collapsed
// must be deeply equal on clustered workloads, a cell crowded past the
// candidate cap, zero-width and zero-height extents, representatives in
// the last cell, and exact duplicates.
func TestAggregateMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	type fixture struct {
		name  string
		rects []geom.Rect
		slack float64
	}
	var fixtures []fixture
	for _, n := range []int{2, 40, 400, 3000} {
		cfg := workload.DefaultConfig()
		cfg.Seed = int64(n)
		cfg.DupF = 0.3
		var rects []geom.Rect
		for _, q := range workload.MustNewGenerator(cfg).Queries(n) {
			rects = append(rects, q.Region.BoundingRect())
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("clustered-%d", n), rects, 0})
	}
	for s := 0; s < 5; s++ {
		fixtures = append(fixtures, fixture{fmt.Sprintf("crowded-%d", s), crowdedCell(rng), 1.0 / 1024})
	}
	var line, dot, dups, corner []geom.Rect
	for i := 0; i < 120; i++ {
		y := rng.Float64() * 100
		line = append(line, geom.R(5, y, 5, y+rng.Float64()*20)) // cw == 0
		dot = append(dot, geom.R(3, 3, 3, 3))                    // cw == ch == 0
		r := geom.RectWH(rng.Float64()*900, rng.Float64()*900, 1+rng.Float64()*90, 1+rng.Float64()*90)
		dups = append(dups, r, r)
		x, y := 1000-rng.Float64()*40, 1000-rng.Float64()*40
		corner = append(corner, geom.R(x, y, 1000, 1000)) // centers in the last cell
	}
	corner = append(corner, geom.R(0, 0, 1, 1))
	flat := func(rs []geom.Rect) []geom.Rect { // ch == 0
		out := make([]geom.Rect, len(rs))
		for i, r := range rs {
			out[i] = geom.R(r.MinY, 7, r.MaxY, 7)
		}
		return out
	}
	fixtures = append(fixtures,
		fixture{"zero-width", line, 0}, fixture{"zero-height", flat(line), 0},
		fixture{"one-point", dot, 0}, fixture{"duplicates", dups, 0}, fixture{"last-cell", corner, 0})

	crowded := false
	for _, f := range fixtures {
		qs := rectQueries(f.rects)
		want := aggregateMap(qs, f.slack)
		got := Aggregate(qs, f.slack)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: flat grid gave %d reps (%d collapsed), the map %d (%d)",
				f.name, len(got.Reps), got.Collapsed, len(want.Reps), want.Collapsed)
		}
		checkPartition(t, qs, got)
		covering := 0
		for _, rep := range want.Reps {
			if rep.Rect.Contains(geom.Pt(500, 500)) {
				covering++
			}
		}
		crowded = crowded || covering > aggCellCandidates
	}
	if !crowded {
		t.Fatal("no fixture crowds a cell past the candidate cap")
	}
}

// TestAggregateExtremeEdges feeds the pass infinite, NaN and near-overflow
// edges, for which cell arithmetic yields no meaningful cell: it must not
// panic, the member lists must partition the queries, and every member
// must lie inside its representative (a NaN edge of a representative
// bounds nothing and is accepted).
func TestAggregateExtremeEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := rand.New(rand.NewSource(92))
	for _, edge := range []geom.Rect{
		geom.R(0, 0, inf, 10), geom.R(-inf, 0, 10, 10), geom.R(0, -inf, 10, inf),
		geom.R(0, 0, nan, 10), geom.R(nan, 0, 10, 10), geom.R(0, 0, 10, nan),
		geom.R(0, 0, 1e308, 1e308), geom.R(-1e308, -1e308, 1e308, 1e308),
	} {
		var rects []geom.Rect
		for i := 0; i < 150; i++ {
			rects = append(rects, geom.RectWH(rng.Float64()*100, rng.Float64()*100, 1+rng.Float64()*30, 1+rng.Float64()*30))
		}
		rects = append(rects, edge, edge)
		qs := rectQueries(rects)
		agg := Aggregate(qs, 0)
		seen := make([]int, len(qs))
		for ri, rep := range agg.Reps {
			for _, m := range rep.Members {
				seen[m]++
				if agg.RepOf[m] != ri {
					t.Fatalf("edge %v: RepOf[%d] = %d, member of %d", edge, m, agg.RepOf[m], ri)
				}
				if r := rects[m]; !bounds(rep.Rect.MinX, r.MinX, true) || !bounds(rep.Rect.MinY, r.MinY, true) ||
					!bounds(rep.Rect.MaxX, r.MaxX, false) || !bounds(rep.Rect.MaxY, r.MaxY, false) {
					t.Fatalf("edge %v: rep %v does not cover member %v", edge, rep.Rect, r)
				}
			}
		}
		for q, c := range seen {
			if c != 1 {
				t.Fatalf("edge %v: query %d in %d member lists", edge, q, c)
			}
		}
	}
}

// bounds reports whether the representative edge rep bounds the member
// edge m from below (lower) or above; a NaN rep edge bounds anything.
func bounds(rep, m float64, lower bool) bool {
	switch {
	case math.IsNaN(rep):
		return true
	case lower:
		return rep <= m
	}
	return rep >= m
}

// TestAggregateWarmAllocs pins what a warm aggregation allocates: the
// result's RepOf, Reps and member block, nothing else.
func TestAggregateWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	qs, _ := benchWorkload(400)
	Aggregate(qs, 0)
	if allocs := testing.AllocsPerRun(50, func() { Aggregate(qs, 0) }); allocs > 3 {
		t.Fatalf("a warm Aggregate of 400 queries made %v allocations, want ≤ 3", allocs)
	}
}
