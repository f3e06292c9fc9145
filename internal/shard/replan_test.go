package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/geom"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/workload"
)

// churnConfig is the churn-sharded planner configuration.
var churnConfig = Config{Enabled: true, ShardBits: 4, Aggregate: true}

// population is a seeded, churning subscription registry: client id →
// subscriptions, flattened into Problems in the server's canonical order
// (client ids ascending).
type population struct {
	rng  *rand.Rand
	gen  *workload.Generator
	subs map[int][]query.Query
	next int // next client id to join
}

func newPopulation(seed int64, clients, perClient int) *population {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.SF = 0.02
	cfg.DupF = 0.2
	w := &population{
		rng:  rand.New(rand.NewSource(seed)),
		gen:  workload.MustNewGenerator(cfg),
		subs: make(map[int][]query.Query),
	}
	for _, q := range w.gen.Queries(clients * perClient) {
		w.subs[w.next%clients] = append(w.subs[w.next%clients], q)
		w.next++
	}
	w.next = clients
	return w
}

func (w *population) ids() []int {
	ids := make([]int, 0, len(w.subs))
	for id := range w.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (w *population) problem(channels int, est relation.Estimator, prev *Result) *Problem {
	p := &Problem{
		Channels: channels, Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 2},
		Estimator: est, Algorithm: core.PairMerge{}, Config: churnConfig,
		ClientIDs: w.ids(), Prev: prev,
	}
	for _, id := range p.ClientIDs {
		var idx []int
		for _, q := range w.subs[id] {
			idx = append(idx, len(p.Queries))
			p.Queries = append(p.Queries, q)
		}
		p.Clients = append(p.Clients, idx)
	}
	return p
}

// churn applies one random change: a swap, a subscribe, an unsubscribe,
// a client joining or a client leaving.
func (w *population) churn() {
	ids := w.ids()
	id := ids[w.rng.Intn(len(ids))]
	fresh := func() query.Query { return w.gen.Queries(1)[0] }
	drop := func() {
		i := w.rng.Intn(len(w.subs[id]))
		w.subs[id] = append(w.subs[id][:i:i], w.subs[id][i+1:]...)
	}
	switch op := w.rng.Intn(10); {
	case op < 5: // swap
		drop()
		w.subs[id] = append(w.subs[id], fresh())
	case op < 7:
		w.subs[id] = append(w.subs[id], fresh())
	case op < 8:
		if len(w.subs[id]) > 1 {
			drop()
		}
	case op < 9:
		w.subs[w.next] = []query.Query{fresh(), fresh()}
		w.next++
	default:
		if len(ids) > 2 {
			delete(w.subs, id)
		}
	}
}

// frozenRelation is the estimator input of the bit-for-bit checks: data
// that does not move, sized exactly.
func frozenRelation(seed int64, n int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
	for i := 0; i < n; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), make([]byte, 16))
	}
	return rel
}

// TestReplanEqualsFreshSolveBitForBit is the replan oracle with the
// estimates frozen: over 200 rounds of churn, an incremental replan —
// whatever it reused — must return exactly what solving every task
// afresh under the same inherited allocation returns: plans, costs and
// transmit bytes to the bit, at any parallelism. It also pins that reuse
// happens at all and that no known client ever changes channel.
func TestReplanEqualsFreshSolveBitForBit(t *testing.T) {
	est := relation.Exact{Rel: frozenRelation(5, 8000)}
	for _, par := range []int{1, 4} {
		w := newPopulation(11, 50, 4)
		prev, err := Plan(w.problem(8, est, nil))
		if err != nil {
			t.Fatal(err)
		}
		if prev.Stats.Reused != 0 {
			t.Fatalf("full plan reports %d reused tasks", prev.Stats.Reused)
		}
		reused, solvedTasks := 0, 0
		for round := 0; round < 200; round++ {
			for k := 0; k < 1+w.rng.Intn(4); k++ {
				w.churn()
			}
			p := w.problem(8, est, prev)
			p.Parallelism = par
			got, err := Plan(p)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			checkExactCover(t, p, got)
			for ci, id := range p.ClientIDs {
				if ch, known := prev.clientChannel[id]; known && got.ClientChannel[ci] != ch {
					t.Fatalf("round %d: client %d moved from channel %d to %d", round, id, ch, got.ClientChannel[ci])
				}
			}

			// The oracle inherits the same allocation and sizes but no
			// solved task, so it runs solveShard on every task.
			bare := *prev
			bare.tasks = nil
			p.Prev = &bare
			want, err := Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.Reused != 0 {
				t.Fatalf("round %d: oracle reused %d tasks", round, want.Stats.Reused)
			}
			if !reflect.DeepEqual(got.ChannelPlans, want.ChannelPlans) || !reflect.DeepEqual(got.ClientChannel, want.ClientChannel) {
				t.Fatalf("round %d: replan differs from a fresh solve of every task", round)
			}
			if got.EstimatedCost != want.EstimatedCost || got.InitialCost != want.InitialCost || got.TransmitBytes != want.TransmitBytes {
				t.Fatalf("round %d: costs %v/%v/%v, fresh solve %v/%v/%v", round,
					got.EstimatedCost, got.InitialCost, got.TransmitBytes,
					want.EstimatedCost, want.InitialCost, want.TransmitBytes)
			}
			if !reflect.DeepEqual(got.tasks, want.tasks) {
				t.Fatalf("round %d: the tasks kept for the next replan differ", round)
			}
			reused += got.Stats.Reused
			solvedTasks += got.Stats.Shards - got.Stats.Reused
			prev = got
		}
		if reused < 5*solvedTasks {
			t.Fatalf("parallelism %d: %d tasks reused against %d solved; small churn should leave most tasks alone", par, reused, solvedTasks)
		}
	}
}

// TestReplanPlacesJoinedClient pins what a replan does about clients: a
// known one keeps its channel, a joined one follows the majority of its
// weight under the kept shard → channel map, a departed one is forgotten.
func TestReplanPlacesJoinedClient(t *testing.T) {
	est := testEstimator()
	w := newPopulation(3, 40, 4)
	prev, err := Plan(w.problem(4, est, nil))
	if err != nil {
		t.Fatal(err)
	}
	// The newcomer subscribes copies of one existing client's queries,
	// so its weight sits where that client's does.
	model := w.ids()[7]
	joined := w.next
	for i, q := range w.subs[model] {
		w.subs[joined] = append(w.subs[joined], query.Range(query.ID(9000+i), q.Region.BoundingRect()))
	}
	gone := w.ids()[0]
	delete(w.subs, gone)

	p := w.problem(4, est, prev)
	res, err := Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	checkExactCover(t, p, res)
	if got, want := res.clientChannel[joined], prev.clientChannel[model]; got != want {
		t.Fatalf("joined client on channel %d, the client it copies on %d", got, want)
	}
	if _, ok := res.clientChannel[gone]; ok {
		t.Fatal("departed client still has a channel")
	}
	if !reflect.DeepEqual(res.shardChannel, prev.shardChannel) {
		t.Fatal("replan changed the shard → channel map")
	}
}

// TestReplanNeverReuses covers what must always be solved again: tasks
// with a non-rectangular region, solves cut short by the budget, and a
// previous result for another channel or shard count.
func TestReplanNeverReuses(t *testing.T) {
	est := testEstimator()
	replan := func(w *population, channels int, prev *Result, edit func(*Problem)) *Result {
		t.Helper()
		p := w.problem(channels, est, prev)
		if edit != nil {
			edit(p)
		}
		res, err := Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		checkExactCover(t, p, res)
		return res
	}

	// Unchanged subscriptions: everything is reused, nothing is solved.
	w := newPopulation(4, 30, 4)
	full := replan(w, 4, nil, nil)
	if again := replan(w, 4, full, nil); again.Stats.Reused != again.Stats.Shards || again.EstimatedCost != full.EstimatedCost {
		t.Fatalf("unchanged replan reused %d of %d tasks", again.Stats.Reused, again.Stats.Shards)
	}

	// Another channel count or shard count: the allocation cannot be
	// inherited, so the plan is the full one.
	for name, edit := range map[string]func(*Problem){
		"channels": func(p *Problem) { p.Channels = 3 },
		"shards":   func(p *Problem) { p.Config.ShardBits = 3 },
	} {
		want := replan(w, 4, nil, edit)
		if got := replan(w, 4, full, edit); got.Stats.Reused != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed: replan reused %d tasks or differs from the full plan", name, got.Stats.Reused)
		}
	}

	// A budget that trips leaves nothing behind to reuse.
	cut := replan(w, 4, nil, func(p *Problem) { p.Budget = core.NewBudget(0, 1) })
	if len(cut.tasks) != 0 {
		t.Fatalf("budget-cut plan kept %d tasks", len(cut.tasks))
	}
	if got := replan(w, 4, cut, nil); got.Stats.Reused != 0 {
		t.Fatalf("replan reused %d budget-cut tasks", got.Stats.Reused)
	}

	// Without aggregation tasks hold the original regions; one polygon
	// leaves its task without a signature, the others keep theirs.
	poly := func(p *Problem) {
		p.Config.Aggregate = false
		r := p.Queries[0].Region.BoundingRect()
		p.Queries[0].Region = geom.Polygon{{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY}}
	}
	first := replan(w, 4, nil, poly)
	if len(first.tasks) != first.Stats.Shards-1 {
		t.Fatalf("%d of %d tasks kept, want all but the polygon's", len(first.tasks), first.Stats.Shards)
	}
	if got := replan(w, 4, first, poly); got.Stats.Reused != got.Stats.Shards-1 {
		t.Fatalf("reused %d of %d tasks, want all but the polygon's", got.Stats.Reused, got.Stats.Shards)
	}
}

// TestTransmitBytesMatchesMergedRegions pins Result.TransmitBytes to its
// definition: the estimated size of every stitched set's merged region,
// merged from the original queries as the server publishes them — on a
// full plan and, with the estimates frozen, through replans that reuse
// tasks. Under a procedure that looks inside the bounding rectangle a
// reused task's sets change with their members although its signature,
// the representatives' rectangles, does not.
func TestTransmitBytesMatchesMergedRegions(t *testing.T) {
	est := relation.Exact{Rel: frozenRelation(8, 5000)}
	for _, proc := range []query.MergeProcedure{query.BoundingRect{}, query.BoundingPolygon{}, query.Exact{}} {
		w := newPopulation(6, 30, 4)
		var prev *Result
		reused := 0
		for round := 0; round < 60; round++ {
			p := w.problem(4, est, prev)
			p.Procedure = proc
			res, err := Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for _, plan := range res.ChannelPlans {
				for _, region := range core.MergedRegions(p.Queries, proc, plan) {
					want += est.SizeBytes(region)
				}
			}
			if res.TransmitBytes != want || want == 0 {
				t.Fatalf("%s round %d: TransmitBytes %v, merged regions size to %v", proc.Name(), round, res.TransmitBytes, want)
			}
			reused += res.Stats.Reused
			prev = res
			w.churn()
		}
		if reused == 0 {
			t.Fatalf("%s: no task was ever reused", proc.Name())
		}
	}
}

// TestReusedTaskSizesChangedMembers: aggregation lets a member stick out
// of the representative that absorbs it by up to a pitch, so a member can
// be exchanged without the representative's rectangle — the task's
// signature — changing. Under a merge procedure that follows the members'
// own outlines the reused task's sets then cover other ground, and its
// transmit bytes must be what a full plan computes.
func TestReusedTaskSizesChangedMembers(t *testing.T) {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 32, 32)
	rel.Insert(geom.Pt(200, 200), make([]byte, 16)) // inside the big query
	rel.Insert(geom.Pt(303, 175), make([]byte, 16)) // in the first member's overhang
	rel.Insert(geom.Pt(303, 250), make([]byte, 64)) // in the second member's overhang
	est := relation.Exact{Rel: rel}
	problem := func(overhang geom.Rect, prev *Result) *Problem {
		return &Problem{
			Queries: []query.Query{
				query.Range(1, geom.R(100, 100, 300, 300)),
				query.Range(2, overhang),
				query.Range(3, geom.R(0, 0, 10, 10)), // these two fix the extent, hence the pitch
				query.Range(4, geom.R(990, 990, 1000, 1000)),
			},
			Clients: [][]int{{0}, {1}, {2, 3}}, ClientIDs: []int{0, 1, 2},
			Model: cost.Model{KM: 500, KT: 1, KU: 1, K6: 2}, Estimator: est,
			Procedure: query.Exact{}, Config: churnConfig, Prev: prev,
		}
	}
	first, err := Plan(problem(geom.R(250, 150, 307, 200), nil))
	if err != nil {
		t.Fatal(err)
	}
	swapped := geom.R(250, 200, 307, 300)
	got, err := Plan(problem(swapped, first))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(problem(swapped, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Reused != got.Stats.Shards {
		t.Fatalf("reused %d of %d tasks; the exchange was meant to leave every signature alone", got.Stats.Reused, got.Stats.Shards)
	}
	if want.TransmitBytes == first.TransmitBytes {
		t.Fatal("the exchange does not change the predicted bytes; the test shows nothing")
	}
	if got.TransmitBytes != want.TransmitBytes || got.EstimatedCost != want.EstimatedCost {
		t.Fatalf("replan predicts %v bytes at cost %v, a full plan %v at %v",
			got.TransmitBytes, got.EstimatedCost, want.TransmitBytes, want.EstimatedCost)
	}
}
