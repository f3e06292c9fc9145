package interval

import (
	"math"
	"math/rand"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
)

var testModel = cost.Model{KM: 10, KT: 1, KU: 1}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 40}
	if iv.Length() != 38 {
		t.Fatalf("Length = %g", iv.Length())
	}
	if !iv.Contains(2) || !iv.Contains(40) || iv.Contains(41) {
		t.Fatal("closed containment broken")
	}
	if (Interval{Lo: 1, Hi: 0}).Length() != 0 {
		t.Fatal("empty interval should have zero length")
	}
	u := iv.Union(Interval{Lo: 3, Hi: 41})
	if u != (Interval{Lo: 2, Hi: 41}) {
		t.Fatalf("Union = %v", u)
	}
	if got := iv.Union(Interval{Lo: 1, Hi: 0}); got != iv {
		t.Fatal("union with empty should be identity")
	}
}

func TestToQueryLifting(t *testing.T) {
	q := Interval{Lo: 2, Hi: 40}.ToQuery(7)
	if q.ID != 7 {
		t.Fatalf("ID = %d", q.ID)
	}
	r := q.Region.BoundingRect()
	if r.MinX != 2 || r.MaxX != 40 {
		t.Fatalf("lifted rect = %v", r)
	}
}

func TestIntroExampleMerges(t *testing.T) {
	// §1: σ(2≤A≤40) and σ(3≤A≤41) merge into σ(2≤A≤41) whenever the
	// per-query cost dominates the small added irrelevant data.
	ivs := []Interval{{2, 40}, {3, 41}}
	model := cost.Model{KM: 100, KT: 1, KU: 1}
	p := MergeContiguous(model, ivs, 1)
	if len(p.Plan) != 1 {
		t.Fatalf("overlapping intro queries should merge, got %v", p.Plan)
	}
	inst := Instance(model, ivs, 1)
	if math.Abs(p.Cost-inst.Cost(p.Plan)) > 1e-9 {
		t.Fatalf("DP cost %g disagrees with instance cost %g", p.Cost, inst.Cost(p.Plan))
	}
}

func TestIdenticalQueriesCollapse(t *testing.T) {
	ivs := make([]Interval, 6)
	for i := range ivs {
		ivs[i] = Interval{Lo: 10, Hi: 20}
	}
	p := MergeContiguous(testModel, ivs, 1)
	if len(p.Plan) != 1 || len(p.Plan[0]) != 6 {
		t.Fatalf("identical intervals should collapse, got %v", p.Plan)
	}
}

func TestFarApartStaySeparate(t *testing.T) {
	ivs := []Interval{{0, 1}, {1000, 1001}}
	p := MergeContiguous(cost.Model{KM: 1, KT: 1, KU: 1}, ivs, 1)
	if len(p.Plan) != 2 {
		t.Fatalf("distant intervals should stay separate, got %v", p.Plan)
	}
}

func TestDPCostMatchesInstanceCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		ivs := randomIntervals(rng, n, false)
		model := cost.Model{KM: rng.Float64() * 100, KT: 1, KU: rng.Float64() * 2}
		p := MergeContiguous(model, ivs, 1)
		inst := Instance(model, ivs, 1)
		if !p.Plan.IsPartition(n) {
			t.Fatalf("DP plan %v is not a partition", p.Plan)
		}
		if got := inst.Cost(p.Plan); math.Abs(got-p.Cost) > 1e-6 {
			t.Fatalf("DP cost %g disagrees with instance cost %g", p.Cost, got)
		}
	}
}

func TestDPOptimalOnProperFamilies(t *testing.T) {
	// For proper interval families (no nesting) the contiguous DP
	// matches the unrestricted Partition optimum across many random
	// instances — the empirical basis for the package's claim.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(7)
		ivs := randomIntervals(rng, n, true)
		if !Proper(ivs) {
			t.Fatal("generator should produce proper families")
		}
		model := cost.Model{KM: 20 + rng.Float64()*200, KT: 1, KU: rng.Float64()}
		dp := MergeContiguous(model, ivs, 1)
		inst := Instance(model, ivs, 1)
		opt := inst.Cost(core.Partition{}.Solve(inst))
		if dp.Cost > opt+1e-6 {
			t.Fatalf("trial %d: DP cost %g, unrestricted optimum %g (ivs %v)",
				trial, dp.Cost, opt, ivs)
		}
	}
}

func TestDPNeverBeatsUnrestrictedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		ivs := randomIntervals(rng, n, false)
		model := cost.Model{KM: rng.Float64() * 300, KT: 1, KU: rng.Float64() * 2}
		dp := MergeContiguous(model, ivs, 1)
		inst := Instance(model, ivs, 1)
		opt := inst.Cost(core.Partition{}.Solve(inst))
		if dp.Cost < opt-1e-6 {
			t.Fatalf("DP cost %g below the true optimum %g — DP cost accounting broken",
				dp.Cost, opt)
		}
	}
}

func TestNestingBreaksContiguity(t *testing.T) {
	// The documented counterexample: a huge interval nested across two
	// small ones. Grouping the two small ones (skipping the big one in
	// sorted order) beats every contiguous partition.
	ivs := []Interval{
		{0, 1},     // small left
		{0.5, 100}, // huge, sorts between the small ones
		{1.5, 2.5}, // small right
	}
	if Proper(ivs) {
		t.Fatal("fixture should be improper (nested spans)")
	}
	model := cost.Model{KM: 10, KT: 1, KU: 1}
	inst := Instance(model, ivs, 1)
	opt := inst.Cost(core.Partition{}.Solve(inst))
	dp := MergeContiguous(model, ivs, 1)
	skipping := inst.Cost(core.Plan{{0, 2}, {1}})
	if !(skipping <= opt+1e-9) {
		t.Fatalf("expected the skipping plan to be optimal: skipping %g, optimum %g", skipping, opt)
	}
	if dp.Cost <= opt+1e-9 {
		t.Skip("DP happened to match; fixture no longer demonstrates the gap")
	}
	// The gap exists — which is exactly why the DP is documented as
	// contiguous-optimal, not globally optimal.
}

func TestProper(t *testing.T) {
	if !Proper([]Interval{{0, 1}, {2, 3}, {0.5, 1.5}}) {
		t.Fatal("overlapping but non-nested should be proper")
	}
	if Proper([]Interval{{0, 10}, {2, 3}}) {
		t.Fatal("nested should be improper")
	}
	if !Proper([]Interval{{0, 1}, {0, 1}}) {
		t.Fatal("identical intervals are not strict nesting")
	}
}

func TestAlgorithmAdapter(t *testing.T) {
	ivs := []Interval{{0, 10}, {5, 15}, {100, 110}}
	a := Algorithm{Model: testModel, Ivs: ivs, Density: 1}
	if a.Name() != "interval-dp" {
		t.Fatalf("Name = %q", a.Name())
	}
	plan := a.Solve(nil)
	if !plan.IsPartition(3) {
		t.Fatalf("adapter plan %v invalid", plan)
	}
}

func TestMergeContiguousEmpty(t *testing.T) {
	p := MergeContiguous(testModel, nil, 1)
	if len(p.Plan) != 0 || p.Cost != 0 {
		t.Fatalf("empty input should give empty plan, got %+v", p)
	}
}

// randomIntervals generates n random intervals; when proper is set, it
// generates a proper family by giving every interval the same width.
func randomIntervals(rng *rand.Rand, n int, proper bool) []Interval {
	out := make([]Interval, n)
	width := 5 + rng.Float64()*10
	for i := range out {
		lo := rng.Float64() * 100
		w := width
		if !proper {
			w = rng.Float64()*30 + 0.5
		}
		out[i] = Interval{Lo: lo, Hi: lo + w}
	}
	return out
}

func BenchmarkMergeContiguous(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ivs := randomIntervals(rng, 200, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeContiguous(testModel, ivs, 1)
	}
}

// ToQuery lifts a 1-D range subscription into the 2-D system as a unit-
// height strip, so interval subscriptions flow through the same server,
// extractors and multicast machinery as geographic queries.
func (iv Interval) ToQuery(id query.ID) query.Query {
	return query.Range(id, geom.R(iv.Lo, 0, iv.Hi, 1))
}

// Proper reports whether no interval in the set strictly contains
// another. For proper families the contiguous DP empirically matches the
// unrestricted optimum (see the tests); nesting is what breaks
// contiguity.
func Proper(ivs []Interval) bool {
	for i := range ivs {
		for j := range ivs {
			if i == j {
				continue
			}
			a, b := ivs[i], ivs[j]
			if a.Lo <= b.Lo && b.Hi <= a.Hi && (a.Lo < b.Lo || b.Hi < a.Hi) {
				return false
			}
		}
	}
	return true
}
