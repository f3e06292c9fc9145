package qsub_test

import (
	"fmt"
	"sync"

	"qsub"
)

// Example runs the BADD scenario of §2 end to end: 8 operational units
// subscribe 24 clustered queries over a battlefield of 20 000 objects,
// the server merges the queries and spreads the units over 3 multicast
// channels, publishes one cycle, and every unit extracts its own answers.
// It prints the measured accounting of the merged plan next to the
// no-merging baseline, and checks each unit's answers against a direct
// evaluation of its queries on the relation.
func Example() {
	model := qsub.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000}
	fmt.Println("=== merged (pair merging + channel allocation) ===")
	mCost, mMsgs, mBytes := demo(model, nil, true)
	fmt.Println()
	fmt.Println("=== baseline (no merging) ===")
	bCost, bMsgs, bBytes := demo(model, qsub.NoMerge{}, false)
	fmt.Println()
	// With a high K_M the planner ships extra (irrelevant) bytes to save
	// messages, as §1 warns merging may.
	fmt.Printf("model cost:    %+.1f%%\n", 100*(mCost/bCost-1))
	fmt.Printf("messages:      %+.1f%%\n", 100*(float64(mMsgs)/float64(bMsgs)-1))
	fmt.Printf("payload bytes: %+.1f%%\n", 100*(float64(mBytes)/float64(bBytes)-1))
	// Output:
	// === merged (pair merging + channel allocation) ===
	// estimated cost: 1382390 (no-merge baseline 3307925, 58.2% saved)
	// published: 8 messages, 4340 tuples, 151900 payload bytes
	// network: 20 deliveries, 465640 payload bytes delivered, 320 header bytes, 0 dropped
	// clients: 43855 relevant bytes, 271215 irrelevant bytes extracted, 150570 foreign bytes filtered, 0 gaps detected
	// client 0: 3 queries, answers equal direct evaluation
	// client 1: 3 queries, answers equal direct evaluation
	// client 2: 3 queries, answers equal direct evaluation
	// client 3: 3 queries, answers equal direct evaluation
	// client 4: 3 queries, answers equal direct evaluation
	// client 5: 3 queries, answers equal direct evaluation
	// client 6: 3 queries, answers equal direct evaluation
	// client 7: 3 queries, answers equal direct evaluation
	//
	// === baseline (no merging) ===
	// estimated cost: 3163925 (no-merge baseline 3163925, 0.0% saved)
	// published: 24 messages, 1255 tuples, 43925 payload bytes
	// network: 66 deliveries, 120400 payload bytes delivered, 384 header bytes, 0 dropped
	// clients: 43925 relevant bytes, 0 irrelevant bytes extracted, 76475 foreign bytes filtered, 0 gaps detected
	//
	// model cost:    -56.3%
	// messages:      -66.7%
	// payload bytes: +245.8%
}

// demo runs one cycle of Example's scenario with the given merging
// algorithm (nil selects pair merging), prints its accounting (and, with
// perClient, one line per client) and returns the planned cost, the
// messages published and the payload bytes sent.
func demo(model qsub.Model, algo qsub.Algorithm, perClient bool) (cost float64, msgs, bytes uint64) {
	wl := qsub.DefaultWorkload()
	wl.DF = 70
	gen, _ := qsub.NewWorkload(wl)
	// The objects follow the same hotspots as the queries.
	rel := qsub.NewRelation(wl.DB, 25, 25)
	for _, p := range gen.Points(20000) {
		rel.Insert(p, []byte("unit-report"))
	}
	net, _ := qsub.NewNetwork(3)
	srv, _ := qsub.NewServer(rel, net, qsub.ServerConfig{
		Model: model, Algorithm: algo, Strategy: qsub.BestOfBoth, Seed: wl.Seed,
	})
	qs := gen.Queries(24)
	clients, cycle, rep := publishOnce(net, srv, qs, gen.Clients(8, qs))

	st := net.Stats()
	fmt.Printf("estimated cost: %.0f (no-merge baseline %.0f, %.1f%% saved)\n",
		cycle.EstimatedCost, cycle.InitialCost, 100*(1-cycle.EstimatedCost/cycle.InitialCost))
	fmt.Printf("published: %d messages, %d tuples, %d payload bytes\n",
		rep.Messages, rep.Tuples, rep.PayloadBytes)
	fmt.Printf("network: %d deliveries, %d payload bytes delivered, %d header bytes, %d dropped\n",
		st.Deliveries, st.PayloadBytesDelivered, st.HeaderBytesSent, st.Dropped)
	relevant, irrelevant, filtered, gaps := 0, 0, 0, 0
	for _, c := range clients {
		cs := c.Stats()
		relevant, irrelevant = relevant+cs.RelevantBytes, irrelevant+cs.IrrelevantBytes
		filtered, gaps = filtered+cs.FilteredBytes, gaps+cs.GapsDetected
	}
	fmt.Printf("clients: %d relevant bytes, %d irrelevant bytes extracted, %d foreign bytes filtered, %d gaps detected\n",
		relevant, irrelevant, filtered, gaps)
	for id, c := range clients {
		if v := verdict(rel, c); perClient || v != answersEqual {
			fmt.Printf("client %d: %d queries, %s\n", id, len(c.Queries()), v)
		}
	}
	return cycle.EstimatedCost, st.MessagesPublished, st.PayloadBytesSent
}

// publishOnce subscribes one client per unit (units lists each unit's
// query indices), plans one cycle, publishes it to every client on its
// assigned channel, and closes the network.
func publishOnce(net *qsub.Network, srv *qsub.Server, qs []qsub.Query, units [][]int) ([]*qsub.Client, *qsub.Cycle, qsub.PublishReport) {
	var clients []*qsub.Client
	for id, qidx := range units {
		c := qsub.NewClient(id)
		for _, qi := range qidx {
			c.AddQuery(qs[qi])
			srv.Subscribe(id, qs[qi])
		}
		clients = append(clients, c)
	}
	cycle, _ := srv.Plan()
	var wg sync.WaitGroup
	for id, c := range clients {
		sub, _ := net.Subscribe(cycle.ClientChannel[id], 64)
		wg.Add(1)
		go func() { defer wg.Done(); c.Consume(sub) }()
	}
	rep, _ := srv.Publish(cycle)
	net.Close() // ends every subscription once its messages are drained
	wg.Wait()
	return clients, cycle, rep
}

const answersEqual = "answers equal direct evaluation"

// verdict compares each of the client's extracted answers with its query
// run directly on the relation.
func verdict(rel *qsub.Relation, c *qsub.Client) string {
	for _, q := range c.Queries() {
		got, want := c.Answer(q.ID), rel.Search(q.Region)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i].ID == want[i].ID && string(got[i].Payload) == string(want[i].Payload)
		}
		if !same {
			return fmt.Sprintf("query %d extracted %d tuples, direct evaluation %d", q.ID, len(got), len(want))
		}
	}
	return answersEqual
}

// ExampleMergeProcedures compares the merge procedures of Fig 5 (plus
// the banded hull) on one clustered BADD workload: 6 units, 18 queries,
// 15 000 objects, 2 channels. Simpler merged queries ship more bytes
// that no query asked for; the table is EXPERIMENTS.md §3.2's.
func ExampleMergeProcedures() {
	wl := qsub.DefaultWorkload()
	wl.CF, wl.SF, wl.DF, wl.Seed = 0.8, 0.34, 50, 7
	gen, _ := qsub.NewWorkload(wl)
	rel := qsub.NewRelation(wl.DB, 25, 25)
	for _, p := range gen.Points(15000) {
		rel.Insert(p, []byte("sighting:armor-column"))
	}
	queries := gen.Queries(18)
	units := gen.Clients(6, queries)
	const channels = 2

	fmt.Printf("battlefield %gx%g, %d objects, %d units, %d queries, %d channels\n\n",
		wl.DB.MaxX, wl.DB.MaxY, rel.Len(), len(units), len(queries), channels)
	fmt.Printf("%-18s %-10s %-14s %-16s %s\n",
		"merge procedure", "messages", "sent bytes", "irrelevant bytes", "model cost")
	for _, proc := range qsub.MergeProcedures() {
		net, _ := qsub.NewNetwork(channels)
		srv, _ := qsub.NewServer(rel, net, qsub.ServerConfig{
			Model:     qsub.Model{KM: 64000, KT: 1, KU: 0.5, K6: 24000},
			Procedure: proc,
			Strategy:  qsub.BestOfBoth,
		})
		clients, cycle, rep := publishOnce(net, srv, queries, units)
		irrelevant := 0
		for id, c := range clients {
			if v := verdict(rel, c); v != answersEqual {
				fmt.Printf("%s unit %d: %s\n", proc.Name(), id, v)
			}
			irrelevant += c.Stats().IrrelevantBytes
		}
		fmt.Printf("%-18s %-10d %-14d %-16d %.0f\n",
			proc.Name(), rep.Messages, rep.PayloadBytes, irrelevant, cycle.EstimatedCost)
	}
	// "Irrelevant" in the closing line is area outside every query of a
	// merged set; the column also counts the other queries' tuples a
	// client extracts away, which no procedure avoids.
	fmt.Println("\nexact merging ships zero irrelevant bytes; the bounding rectangle is" +
		"\ncheapest to compute and produces the simplest merged queries (Fig 5).")
	// Output:
	// battlefield 1000x1000, 15000 objects, 6 units, 18 queries, 2 channels
	//
	// merge procedure    messages   sent bytes     irrelevant bytes model cost
	// bounding-rect      3          50265          136755           627420
	// bounding-polygon   3          26595          74295            512205
	// banded-hull        2          5760           11205            300575
	// exact              2          5310           9855             298100
	//
	// exact merging ships zero irrelevant bytes; the bounding rectangle is
	// cheapest to compute and produces the simplest merged queries (Fig 5).
}

// ExampleAllocHeuristic is the §7/§8 channel allocation problem in
// isolation: five clients whose subscriptions fall in two far-apart
// sectors (one client straddles both) share two channels. The §8.2
// strategies are compared against the exhaustive optimum, and a merge
// decided before allocation (§7.2) against the joint one.
func ExampleAllocHeuristic() {
	queries := []qsub.Query{
		qsub.RangeQuery(1, qsub.R(0, 0, 120, 120)),    // west sector
		qsub.RangeQuery(2, qsub.R(30, 30, 150, 150)),  // west sector
		qsub.RangeQuery(3, qsub.R(60, 0, 180, 120)),   // west sector
		qsub.RangeQuery(4, qsub.R(800, 0, 920, 120)),  // east sector
		qsub.RangeQuery(5, qsub.R(830, 30, 950, 150)), // east sector
		qsub.RangeQuery(6, qsub.R(860, 60, 980, 180)), // east sector
	}
	model := qsub.Model{KM: 20000, KT: 1, KU: 0.5, K6: 8000}
	inst := qsub.NewInstance(model, queries, qsub.BoundingRect{},
		qsub.UniformEstimator{Density: 0.05, BytesPerTuple: 32})
	prob := &qsub.AllocProblem{
		Inst:     inst,
		Clients:  [][]int{{0, 1}, {2}, {3, 4}, {5}, {1, 4}},
		Channels: 2,
	}

	optAlloc, optCost, _ := qsub.AllocExhaustive(prob)
	fmt.Printf("exhaustive optimum: cost %.0f, allocation %v\n", optCost, optAlloc)
	for _, s := range []qsub.AllocStrategy{qsub.SmartInit, qsub.RandomInit, qsub.BestOfBoth} {
		alloc, c, _ := qsub.AllocHeuristic(prob, s, 1)
		fmt.Printf("%-14s      cost %.0f (+%.2f%% over optimum), allocation %v\n",
			s, c, 100*(c/optCost-1), alloc)
	}

	// §7.2: merging decided before allocation is worse. Merge globally
	// (as if one channel), then split the clients alternately.
	fmt.Printf("\nglobally merged plan (allocation-blind): %v\n", qsub.PairMerge{}.Solve(inst))
	ch0, _ := qsub.AllocChannelCost(prob, []int{0, 2, 4})
	ch1, _ := qsub.AllocChannelCost(prob, []int{1, 3})
	naive := ch0 + ch1
	fmt.Printf("naive alternating allocation: cost %.0f (+%.2f%% over joint optimum)\n",
		naive, 100*(naive/optCost-1))
	fmt.Println("\njoint optimization groups clients by query overlap; deciding the two" +
		"\nproblems separately leaves merging opportunities on the table (§7.2).")
	// Output:
	// exhaustive optimum: cost 277440, allocation [0 0 0 1 0]
	// smart-init          cost 277440 (+0.00% over optimum), allocation [0 0 0 1 0]
	// random-init         cost 277440 (+0.00% over optimum), allocation [1 1 1 0 1]
	// best-of-both        cost 277440 (+0.00% over optimum), allocation [0 0 0 1 0]
	//
	// globally merged plan (allocation-blind): [[0 1 2] [3 4] [5]]
	// naive alternating allocation: cost 304000 (+9.57% over joint optimum)
	//
	// joint optimization groups clients by query overlap; deciding the two
	// problems separately leaves merging opportunities on the table (§7.2).
}

// ExamplePairMerge shows direct use of the merging engine without the
// server: the Appendix 1 instance where greedy pair merging is trapped.
func ExamplePairMerge() {
	// Fig 6: q1 = top row, q2 = right column, q3 = bottom-left cell of
	// a 2×2 unit grid.
	qs := []qsub.Query{
		qsub.RangeQuery(1, qsub.R(0, 1, 2, 2)),
		qsub.RangeQuery(2, qsub.R(1, 0, 2, 2)),
		qsub.RangeQuery(3, qsub.R(0, 0, 1, 1)),
	}
	inst := qsub.NewInstance(qsub.DefaultModel(), qs, qsub.BoundingRect{},
		qsub.UniformEstimator{Density: 1, BytesPerTuple: 1})

	greedy := qsub.PairMerge{}.Solve(inst)
	optimal := qsub.Partition{}.Solve(inst)
	fmt.Printf("greedy:  %v cost %.0f\n", greedy, inst.Cost(greedy))
	fmt.Printf("optimal: %v cost %.0f\n", optimal, inst.Cost(optimal))
	// Output:
	// greedy:  [[0] [1] [2]] cost 75
	// optimal: [[0 1 2]] cost 74
}
