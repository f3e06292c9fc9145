package chanalloc

import (
	"math"
	"math/rand"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// newProblem builds a channel allocation problem over rectangle queries
// with size = area.
func newProblem(model cost.Model, rects []geom.Rect, clients [][]int, channels int) *Problem {
	qs := make([]query.Query, len(rects))
	for i, r := range rects {
		qs[i] = query.Range(query.ID(i+1), r)
	}
	inst := core.NewGeomInstance(model, qs, query.BoundingRect{}, relation.Uniform{Density: 1, BytesPerTuple: 1})
	return &Problem{Inst: inst, Clients: clients, Channels: channels}
}

func randomProblem(rng *rand.Rand, nQueries, nClients, channels int, model cost.Model) *Problem {
	rects := make([]geom.Rect, nQueries)
	for i := range rects {
		x, y := rng.Float64()*80, rng.Float64()*80
		rects[i] = geom.RectWH(x, y, rng.Float64()*15+1, rng.Float64()*15+1)
	}
	clients := make([][]int, nClients)
	for c := range clients {
		// Each client subscribes to 1-3 random queries.
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			clients[c] = append(clients[c], rng.Intn(nQueries))
		}
	}
	return newProblem(model, rects, clients, channels)
}

var testModel = cost.Model{KM: 10, KT: 2, KU: 1, K6: 3}

func TestValidate(t *testing.T) {
	p := newProblem(testModel, []geom.Rect{geom.R(0, 0, 1, 1)}, [][]int{{0}}, 2)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	if err := (&Problem{Inst: p.Inst, Clients: p.Clients, Channels: 0}).Validate(); err == nil {
		t.Fatal("zero channels should be rejected")
	}
	if err := (&Problem{Inst: p.Inst, Clients: nil, Channels: 1}).Validate(); err == nil {
		t.Fatal("no clients should be rejected")
	}
	if err := (&Problem{Inst: p.Inst, Clients: [][]int{{7}}, Channels: 1}).Validate(); err == nil {
		t.Fatal("unknown query index should be rejected")
	}
	if err := (&Problem{Clients: [][]int{{0}}, Channels: 1}).Validate(); err == nil {
		t.Fatal("nil instance should be rejected")
	}
}

func TestChannelCostDedupesSharedQueries(t *testing.T) {
	// Two clients subscribing the same query must not double its cost:
	// the only difference is the extra listener's K_6 filtering charge
	// for the single merged message.
	rects := []geom.Rect{geom.R(0, 0, 5, 5)}
	p := newProblem(testModel, rects, [][]int{{0}, {0}}, 1)
	both, _ := ChannelCost(p, []int{0, 1})
	one, _ := ChannelCost(p, []int{0})
	if math.Abs((both-one)-testModel.K6) > 1e-9 {
		t.Fatalf("shared query should be processed once: both=%g one=%g (want gap %g)",
			both, one, testModel.K6)
	}
}

func TestChannelCostEmpty(t *testing.T) {
	p := newProblem(testModel, []geom.Rect{geom.R(0, 0, 1, 1)}, [][]int{{0}}, 1)
	if c, plan := ChannelCost(p, nil); c != 0 || plan != nil {
		t.Fatalf("empty channel should cost 0, got %g / %v", c, plan)
	}
}

func TestChannelCostChargesKD(t *testing.T) {
	model := testModel
	model.KD = 100
	rects := []geom.Rect{geom.R(0, 0, 5, 5)}
	withKD := newProblem(model, rects, [][]int{{0}}, 1)
	without := newProblem(testModel, rects, [][]int{{0}}, 1)
	a, _ := ChannelCost(withKD, []int{0})
	b, _ := ChannelCost(without, []int{0})
	if math.Abs((a-b)-100) > 1e-9 {
		t.Fatalf("K_D charge missing: with=%g without=%g", a, b)
	}
}

func TestCostSumsChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 6, 4, 2, testModel)
	alloc := Allocation{0, 0, 1, 1}
	c01, _ := ChannelCost(p, []int{0, 1})
	c23, _ := ChannelCost(p, []int{2, 3})
	if got := Cost(p, alloc); math.Abs(got-(c01+c23)) > 1e-9 {
		t.Fatalf("Cost = %g, want %g", got, c01+c23)
	}
}

func TestPlansCoverAllQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 8, 5, 3, testModel)
	alloc := RandomDistribution(p, 3)
	plans := Plans(p, alloc)
	// Every query subscribed by a client must appear in its channel's
	// plan.
	for client, ch := range alloc {
		inPlan := map[int]bool{}
		for _, set := range plans[ch] {
			for _, q := range set {
				inPlan[q] = true
			}
		}
		for _, q := range p.Clients[client] {
			if !inPlan[q] {
				t.Fatalf("query %d of client %d missing from channel %d plan", q, client, ch)
			}
		}
	}
}

func TestExhaustiveOptimalOnTinyProblem(t *testing.T) {
	// Hand-checkable: two pairs of overlapping queries far apart. The
	// optimal 2-channel allocation groups clients with overlapping
	// queries together.
	rects := []geom.Rect{
		geom.R(0, 0, 10, 10), geom.R(1, 1, 11, 11), // group A
		geom.R(500, 0, 510, 10), geom.R(501, 1, 511, 11), // group B
	}
	clients := [][]int{{0}, {1}, {2}, {3}}
	p := newProblem(cost.Model{KM: 60, KT: 1, KU: 1, K6: 5}, rects, clients, 2)
	alloc, optCost, err := Exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != alloc[1] || alloc[2] != alloc[3] || alloc[0] == alloc[2] {
		t.Fatalf("optimal allocation should pair overlapping clients: %v", alloc)
	}
	// Cross allocation must be strictly worse.
	crossCost := Cost(p, Allocation{0, 1, 0, 1})
	if !(optCost < crossCost) {
		t.Fatalf("optimal cost %g should beat cross allocation %g", optCost, crossCost)
	}
}

func TestExhaustiveRespectsChannelLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, 5, 5, 2, testModel)
	alloc, _, err := Exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range alloc {
		if ch < 0 || ch >= p.Channels {
			t.Fatalf("allocation %v uses channel outside [0,%d)", alloc, p.Channels)
		}
	}
}

func TestInitialDistributionAssignsEveryClient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(rng, 6, 3+rng.Intn(5), 1+rng.Intn(3), testModel)
		alloc := InitialDistribution(p)
		if len(alloc) != len(p.Clients) {
			t.Fatalf("allocation length %d, want %d", len(alloc), len(p.Clients))
		}
		for c, ch := range alloc {
			if ch < 0 || ch >= p.Channels {
				t.Fatalf("client %d assigned to invalid channel %d", c, ch)
			}
		}
	}
}

func TestRandomDistributionDeterministicPerSeed(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(6)), 6, 6, 3, testModel)
	a := RandomDistribution(p, 42)
	b := RandomDistribution(p, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give same distribution")
		}
	}
}

func TestHillClimbNeverIncreasesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 6, 5, 2, testModel)
		start := RandomDistribution(p, int64(trial))
		before := Cost(p, start)
		after := Cost(p, HillClimb(p, start))
		if after > before+1e-9 {
			t.Fatalf("hill climb increased cost: %g -> %g", before, after)
		}
	}
}

func TestHillClimbReachesLocalMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, 6, 4, 2, testModel)
	alloc := HillClimb(p, RandomDistribution(p, 1))
	base := Cost(p, alloc)
	// No single-client move improves the result.
	for client := range alloc {
		for ch := 0; ch < p.Channels; ch++ {
			if ch == alloc[client] {
				continue
			}
			moved := alloc.Clone()
			moved[client] = ch
			if Cost(p, moved) < base-1e-9 {
				t.Fatalf("move client %d to channel %d improves cost: not a local minimum", client, ch)
			}
		}
	}
}

func TestHeuristicBoundedByOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		p := randomProblem(rng, 6, 5, 2, testModel)
		_, opt, err := Exhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{SmartInit, RandomInit, BestOfBoth} {
			_, c, err := Heuristic(p, s, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			if c < opt-1e-9 {
				t.Fatalf("%v cost %g beats the exhaustive optimum %g", s, c, opt)
			}
		}
	}
}

func TestBestOfBothNoWorseThanEither(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(rng, 6, 5, 2, testModel)
		seed := int64(trial)
		_, smart, _ := Heuristic(p, SmartInit, seed)
		_, random, _ := Heuristic(p, RandomInit, seed)
		_, both, _ := Heuristic(p, BestOfBoth, seed)
		if both > smart+1e-9 || both > random+1e-9 {
			t.Fatalf("best-of-both %g worse than smart %g or random %g", both, smart, random)
		}
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		SmartInit:    "smart-init",
		RandomInit:   "random-init",
		BestOfBoth:   "best-of-both",
		Strategy(99): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestMergingAndAllocationInteract reconstructs the §7.2 point: deciding
// merging first and allocation second can ship answers clients do not
// need; the joint optimum is strictly cheaper than the best allocation of
// a globally-merged plan evaluated channel-blind. We verify the weaker,
// precise form: the exhaustive joint optimum beats at least one plausible
// "merge-first" allocation on a workload engineered with cross-cutting
// subscriptions.
func TestMergingAndAllocationInteract(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 0, 10, 10),    // q0: area A
		geom.R(2, 2, 12, 12),    // q1: overlaps q0
		geom.R(500, 0, 510, 10), // q2: area B
		geom.R(502, 2, 512, 12), // q3: overlaps q2
	}
	// Clients cross-cut the natural overlap groups.
	clients := [][]int{{0, 2}, {1, 3}}
	p := newProblem(cost.Model{KM: 30, KT: 1, KU: 1}, rects, clients, 2)
	_, opt, err := Exhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	// Any allocation of these two clients to channels has cost ≥ opt.
	for _, alloc := range []Allocation{{0, 0}, {0, 1}} {
		if c := Cost(p, alloc); c < opt-1e-9 {
			t.Fatalf("allocation %v cost %g beats 'optimal' %g", alloc, c, opt)
		}
	}
}

// stirlingSum returns the number of ways to partition n labeled clients
// into at most k unlabeled non-empty blocks: Σ_{j=1..k} S(n,j).
func stirlingSum(n, k int) int {
	// S(n,j) via the triangle recurrence.
	s := make([][]int, n+1)
	for i := range s {
		s[i] = make([]int, k+1)
	}
	s[0][0] = 1
	for i := 1; i <= n; i++ {
		for j := 1; j <= k && j <= i; j++ {
			s[i][j] = s[i-1][j-1] + j*s[i-1][j]
		}
	}
	total := 0
	for j := 1; j <= k; j++ {
		total += s[n][j]
	}
	return total
}

// TestExhaustiveEnumeratesStirlingManyCases cross-checks the Fig 13 tree
// against the Stirling partition count: counting leaf evaluations must
// match Σ S(n,j), j ≤ channels.
func TestExhaustiveEnumeratesStirlingManyCases(t *testing.T) {
	for _, tc := range []struct{ clients, channels int }{
		{3, 2}, {4, 2}, {4, 3}, {5, 3}, {6, 2},
	} {
		rng := rand.New(rand.NewSource(int64(tc.clients*10 + tc.channels)))
		p := randomProblem(rng, tc.clients, tc.clients, tc.channels, testModel)
		leaves := 0
		var rec func(i, blocks int)
		assign := make([]int, tc.clients)
		rec = func(i, blocks int) {
			if i == tc.clients {
				leaves++
				return
			}
			for b := 0; b < blocks; b++ {
				assign[i] = b
				rec(i+1, blocks)
			}
			if blocks < p.Channels {
				assign[i] = blocks
				rec(i+1, blocks+1)
			}
		}
		rec(0, 0)
		if want := stirlingSum(tc.clients, tc.channels); leaves != want {
			t.Fatalf("clients=%d channels=%d: %d leaves, want Stirling sum %d",
				tc.clients, tc.channels, leaves, want)
		}
	}
}

// TestKDFavorsFewerChannels verifies the K_D interpretation: with a large
// per-channel maintenance charge, the optimal allocation collapses onto
// fewer channels.
func TestKDFavorsFewerChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	free := randomProblem(rng, 6, 4, 3, cost.Model{KM: 10, KT: 1, KU: 1, K6: 50})
	heavy := &Problem{Inst: free.Inst, Clients: free.Clients, Channels: 3}
	// Same instance, but with a crushing K_D via a fresh model.
	heavyModel := free.Inst.Model
	heavyModel.KD = 1e9
	heavyInst := *free.Inst
	heavyInst.Model = heavyModel
	heavy.Inst = &heavyInst

	_, _, err := Exhaustive(free)
	if err != nil {
		t.Fatal(err)
	}
	allocHeavy, _, err := Exhaustive(heavy)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, ch := range allocHeavy {
		used[ch] = true
	}
	if len(used) != 1 {
		t.Fatalf("with huge K_D the optimum should use one channel, used %d: %v", len(used), allocHeavy)
	}
}

// TestHeuristicHandlesManyClients exercises the heuristic well past the
// exhaustive envelope, checking only invariants.
func TestHeuristicHandlesManyClients(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomProblem(rng, 40, 25, 4, testModel)
	for _, s := range []Strategy{SmartInit, RandomInit, BestOfBoth} {
		alloc, c, err := Heuristic(p, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(alloc) != 25 {
			t.Fatalf("%v: allocation covers %d clients, want 25", s, len(alloc))
		}
		if c <= 0 {
			t.Fatalf("%v: suspicious non-positive cost %g", s, c)
		}
	}
}
