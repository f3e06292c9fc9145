package qsub

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/core"
	"qsub/internal/cost"
	"qsub/internal/experiment"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
	"qsub/internal/trace"
	"qsub/internal/wire"
	"qsub/internal/workload"
)

// This file regenerates every table and figure of the paper's evaluation
// as Go benchmarks, plus the complexity-claim and ablation benches called
// out in DESIGN.md. Quality metrics are attached via b.ReportMetric, so
// `go test -bench=. -benchmem` prints both the runtime and the
// reproduced result (probability of optimality, distance to optimal).

// benchInstance builds a deterministic clustered merging instance of n
// queries under the calibrated evaluation model.
func benchInstance(n int, seed int64) *core.Instance {
	wl := workload.DefaultConfig()
	wl.DF = 70
	wl.Seed = seed
	gen := workload.MustNewGenerator(wl)
	qs := gen.Queries(n)
	return core.NewGeomInstance(
		cost.Model{KM: 64000, KT: 1, KU: 0.5},
		qs, query.BoundingRect{},
		relation.Uniform{Density: 0.05, BytesPerTuple: 32},
	)
}

// --- Appendix 1: the three-query example of Fig 6 -----------------------

// BenchmarkAppendix1ThreeQuery evaluates the five Appendix 1 partitions
// and verifies the headline claim each iteration.
func BenchmarkAppendix1ThreeQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Appendix1(cost.DefaultModel(), 1)
		if !res.ClaimHolds {
			b.Fatal("Appendix 1 claim failed")
		}
	}
}

// --- Figures 16 and 17: pair merging vs the exhaustive optimum ----------

func benchMergeConfig() experiment.MergeConfig {
	cfg := experiment.DefaultMergeConfig()
	cfg.Trials = 30
	return cfg
}

// BenchmarkFig16PairMergingOptimality reports the probability that Pair
// Merging finds the optimal plan (paper: ~97% on average).
func BenchmarkFig16PairMergingOptimality(b *testing.B) {
	var prob float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunMergeOptimality(benchMergeConfig())
		if err != nil {
			b.Fatal(err)
		}
		prob, _ = experiment.MergeSummary(rows)
	}
	b.ReportMetric(prob*100, "%optimal")
}

// BenchmarkFig17PairMergingDistance reports the §9.2 distance-to-optimal
// (paper: ~0.63% on average).
func BenchmarkFig17PairMergingDistance(b *testing.B) {
	var dist float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunMergeOptimality(benchMergeConfig())
		if err != nil {
			b.Fatal(err)
		}
		_, dist = experiment.MergeSummary(rows)
	}
	b.ReportMetric(dist*100, "%distance")
}

// --- Figures 18 and 19: channel allocation strategies -------------------

func benchChannelConfig() experiment.ChannelConfig {
	cfg := experiment.DefaultChannelConfig()
	cfg.Trials = 30
	return cfg
}

// BenchmarkFig18ChannelAllocOptimality reports P(optimal) per strategy
// (paper: smart 81.8%, random 85.5%, best-of-both 88.6%).
func BenchmarkFig18ChannelAllocOptimality(b *testing.B) {
	var rows []experiment.ChannelResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunChannelAllocation(benchChannelConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ProbOptimal*100, "%optimal-"+r.Strategy.String())
	}
}

// BenchmarkFig19ChannelAllocDistance reports the distance-to-optimal per
// strategy (paper: ~0.17% on average).
func BenchmarkFig19ChannelAllocDistance(b *testing.B) {
	var rows []experiment.ChannelResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunChannelAllocation(benchChannelConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgDistance*100, "%distance-"+r.Strategy.String())
	}
}

// --- §6 complexity claims -----------------------------------------------

// BenchmarkPartition measures the Bell-number exhaustive algorithm
// (§6.1.1) across the feasible range.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Partition{}.Solve(inst)
			}
		})
	}
}

// BenchmarkPartitionNoMemo is the merged-size memoization ablation.
func BenchmarkPartitionNoMemo(b *testing.B) {
	for _, n := range []int{8, 10} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Partition{DisableMemo: true}.Solve(inst)
			}
		})
	}
}

// BenchmarkPartitionNoPrune is the branch-and-bound ablation.
func BenchmarkPartitionNoPrune(b *testing.B) {
	for _, n := range []int{8, 10} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Partition{DisablePrune: true}.Solve(inst)
			}
		})
	}
}

// BenchmarkPairMerge measures the O(|Q|²) greedy across sizes far beyond
// the exhaustive envelope.
func BenchmarkPairMerge(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100, 200} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PairMerge{}.Solve(inst)
			}
		})
	}
}

// BenchmarkPairMergeHeap measures the heap-driven engine (the default)
// at the sizes the solver-engine rewrite targets.
func BenchmarkPairMergeHeap(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PairMerge{}.Solve(inst)
			}
		})
	}
}

// BenchmarkDirectedSearchParallel measures the restart search on a
// GOMAXPROCS-sized worker pool; sweep the pool with -cpu 1,2,4. The
// restarts are embarrassingly parallel, so on a multi-core host time/op
// should fall near-linearly up to the core count; the plan is identical
// at any setting.
func BenchmarkDirectedSearchParallel(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DirectedSearch{T: 4, Seed: 1}.Solve(inst)
			}
		})
	}
}

// BenchmarkClusteringParallel measures the §6.3 divide-and-conquer with
// the eligibility probe and per-component solves on the worker pool
// (-cpu sweeps it, as above).
func BenchmarkClusteringParallel(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Clustering{ExactThreshold: 10}.Solve(inst)
			}
		})
	}
}

// BenchmarkDirectedSearch measures the restart local search (§6.2.2).
func BenchmarkDirectedSearch(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DirectedSearch{T: 8, Seed: 1}.Solve(inst)
			}
		})
	}
}

// BenchmarkClustering measures the §6.3 divide-and-conquer pruning.
func BenchmarkClustering(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		inst := benchInstance(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Clustering{ExactThreshold: 10}.Solve(inst)
			}
		})
	}
}

// --- §3.2 merge procedures ----------------------------------------------

// BenchmarkMergeProcedures compares the three Fig 5 procedures on the
// same query sets, reporting the irrelevant-area ratio each produces.
func BenchmarkMergeProcedures(b *testing.B) {
	wl := workload.DefaultConfig()
	wl.Seed = 5
	gen := workload.MustNewGenerator(wl)
	qs := gen.Queries(8)
	var rects []geom.Rect
	for _, q := range qs {
		rects = append(rects, q.Region.(geom.Rect))
	}
	unionArea := geom.UnionArea(rects)
	for _, proc := range query.Procedures() {
		proc := proc
		b.Run(proc.Name(), func(b *testing.B) {
			var region geom.Region
			for i := 0; i < b.N; i++ {
				region = proc.Merge(qs)
			}
			b.ReportMetric(region.Area()/unionArea, "area-ratio")
		})
	}
}

// --- channel allocation machinery ----------------------------------------

// BenchmarkChannelAllocExhaustive measures the Fig 13 tree search.
func BenchmarkChannelAllocExhaustive(b *testing.B) {
	for _, clients := range []int{4, 6, 8} {
		prob := benchAllocProblem(clients)
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := chanalloc.Exhaustive(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChannelAllocHeuristic measures the §8.2 hill climbing.
func BenchmarkChannelAllocHeuristic(b *testing.B) {
	for _, clients := range []int{6, 12, 24} {
		prob := benchAllocProblem(clients)
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := chanalloc.Heuristic(prob, chanalloc.SmartInit, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchAllocProblem(clients int) *chanalloc.Problem {
	wl := workload.DefaultConfig()
	wl.DF = 70
	wl.Seed = int64(clients)
	gen := workload.MustNewGenerator(wl)
	qs := gen.Queries(clients * 2)
	inst := core.NewGeomInstance(
		cost.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
		qs, query.BoundingRect{},
		relation.Uniform{Density: 0.05, BytesPerTuple: 32},
	)
	return &chanalloc.Problem{Inst: inst, Clients: gen.Clients(clients, qs), Channels: 3}
}

// --- substrates -----------------------------------------------------------

// BenchmarkRelationSearch measures grid-indexed range search.
func BenchmarkRelationSearch(b *testing.B) {
	rel := relation.MustNew(geom.R(0, 0, 1000, 1000), 25, 25)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), nil)
	}
	q := geom.R(200, 200, 300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.Count(q)
	}
}

// BenchmarkEndToEndPublish measures a full server cycle: merge, execute,
// publish, and concurrent client extraction.
func BenchmarkEndToEndPublish(b *testing.B) {
	rel := NewRelation(R(0, 0, 1000, 1000), 25, 25)
	wl := DefaultWorkload()
	wl.Seed = 2
	gen, err := NewWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range gen.Points(20000) {
		rel.Insert(p, []byte("obj"))
	}
	qs := gen.Queries(16)
	assignment := gen.Clients(4, qs)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(2)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := NewServer(rel, net, ServerConfig{
			Model:    Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
			Strategy: BestOfBoth,
		})
		if err != nil {
			b.Fatal(err)
		}
		clients := make([]*Client, len(assignment))
		for id, qidx := range assignment {
			clients[id] = NewClient(id)
			for _, qi := range qidx {
				clients[id].AddQuery(qs[qi])
				if err := srv.Subscribe(id, qs[qi]); err != nil {
					b.Fatal(err)
				}
			}
		}
		cy, err := srv.Plan()
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		var subs []*multicast.Subscription
		for id, c := range clients {
			sub, err := net.Subscribe(cy.ClientChannel[id], 64)
			if err != nil {
				b.Fatal(err)
			}
			subs = append(subs, sub)
			wg.Add(1)
			go func(c *Client, sub *multicast.Subscription) {
				defer wg.Done()
				c.Consume(sub)
			}(c, sub)
		}
		if _, err := srv.Publish(cy); err != nil {
			b.Fatal(err)
		}
		for _, sub := range subs {
			sub.Cancel()
		}
		wg.Wait()
		net.Close()
	}
}

// discard consumes the subscription until it ends.
func discard(sub *multicast.Subscription) {
	for {
		if _, ok := sub.NextBatch(); !ok {
			return
		}
	}
}

// BenchmarkMulticastFanout measures raw publish/deliver throughput.
func BenchmarkMulticastFanout(b *testing.B) {
	net, err := NewNetwork(1)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	const fanout = 8
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		sub, err := net.Subscribe(0, 1024)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			discard(sub)
		}()
	}
	msg := multicast.Message{Channel: 0, Tuples: []relation.Tuple{{ID: 1, Pos: geom.Pt(1, 1)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Publish(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	net.Close()
	wg.Wait()
}

// --- additional heuristics and substrates --------------------------------

// BenchmarkAlgoComparison reports P(optimal) for the whole heuristic
// suite on the calibrated regime.
func BenchmarkAlgoComparison(b *testing.B) {
	cfg := experiment.DefaultAlgoConfig()
	cfg.Trials = 20
	var rows []experiment.AlgoResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunAlgoComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ProbOptimal*100, "%optimal-"+r.Name)
	}
}

// BenchmarkEstimatorAblation reports the true-cost ratios of planning
// with each size estimator on skewed data.
func BenchmarkEstimatorAblation(b *testing.B) {
	cfg := experiment.DefaultEstimatorConfig()
	cfg.Trials = 10
	cfg.Tuples = 8000
	var rows []experiment.EstimatorResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunEstimatorAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgTrueCostRatio, "cost-ratio-"+r.Name)
	}
}

// BenchmarkWireMessageRoundTrip measures protocol serialization.
func BenchmarkWireMessageRoundTrip(b *testing.B) {
	msg := multicastTestMessage(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := wire.MarshalMessage(msg)
		if _, err := wire.UnmarshalMessage(data); err != nil {
			b.Fatal(err)
		}
	}
}

func multicastTestMessage(tuples int) multicast.Message {
	rng := rand.New(rand.NewSource(7))
	msg := multicast.Message{Channel: 1, Seq: 42}
	for i := 0; i < tuples; i++ {
		msg.Tuples = append(msg.Tuples, relation.Tuple{
			ID:      uint64(i + 1),
			Pos:     geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Payload: []byte("battlefield-object-report"),
		})
	}
	msg.Header = []multicast.HeaderEntry{
		{ClientID: 1, QueryIDs: []query.ID{1, 2}},
		{ClientID: 2, QueryIDs: []query.ID{3}},
	}
	return msg
}

// BenchmarkSnapshotIO measures snapshot serialization and restore of a
// 50k-tuple relation.
func BenchmarkSnapshotIO(b *testing.B) {
	rel := NewRelation(R(0, 0, 1000, 1000), 25, 25)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("snapshot-payload"))
	}
	var buf bytes.Buffer
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := rel.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	if buf.Len() == 0 {
		if err := rel.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	data := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relation.ReadSnapshot(bytes.NewReader(data), 25, 25); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}

// BenchmarkTraceRecord measures control-plane event recording.
func BenchmarkTraceRecord(b *testing.B) {
	r := trace.NewRecorder(io.Discard, func() int64 { return 1 })
	ev := trace.Event{Kind: "publish", Messages: 3, Tuples: 100, PayloadBytes: 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeltaWithDeletions measures a delta publish cycle carrying
// removal notices.
func BenchmarkDeltaWithDeletions(b *testing.B) {
	rel := NewRelation(R(0, 0, 1000, 1000), 25, 25)
	rng := rand.New(rand.NewSource(2))
	var ids []uint64
	for i := 0; i < 20000; i++ {
		ids = append(ids, rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("x")))
	}
	net, err := NewNetwork(1)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	srv, err := NewServer(rel, net, ServerConfig{Model: Model{KM: 64000, KT: 1, KU: 0.5}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		x, y := rng.Float64()*800, rng.Float64()*800
		if err := srv.Subscribe(i, RangeQuery(QueryID(i+1), R(x, y, x+150, y+150))); err != nil {
			b.Fatal(err)
		}
	}
	cy, err := srv.Plan()
	if err != nil {
		b.Fatal(err)
	}
	sub, _ := net.Subscribe(0, 65536)
	go discard(sub)
	if _, err := srv.PublishDelta(cy); err != nil { // baseline full delta
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Churn: 50 inserts, 20 deletes per cycle.
		for j := 0; j < 50; j++ {
			ids = append(ids, rel.Insert(geom.Pt(rng.Float64()*1000, rng.Float64()*1000), []byte("x")))
		}
		for j := 0; j < 20; j++ {
			k := rng.Intn(len(ids))
			rel.Delete(ids[k])
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if _, err := srv.PublishDelta(cy); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sub.Cancel()
}
