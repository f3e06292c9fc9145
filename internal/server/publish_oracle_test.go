package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"qsub/internal/chanalloc"
	"qsub/internal/geom"
	"qsub/internal/multicast"
	"qsub/internal/query"
	"qsub/internal/relation"
)

// oracleWorld is one server with a queue per channel, over a relation
// whose tuples and subscriptions reach past its bounds on every side.
type oracleWorld struct {
	s      *Server
	rel    *relation.Relation
	net    *multicast.Network
	queues []*multicast.Queue
	rng    *rand.Rand
	live   []uint64
	nextQ  query.ID
}

// newOracleWorld builds the world over bounds b (a grid of nx × ny
// cells) with a fixed seed, so two calls build twins.
func newOracleWorld(t *testing.T, b geom.Rect, nx, ny, channels int) *oracleWorld {
	t.Helper()
	w := &oracleWorld{rel: relation.MustNew(b, nx, ny), rng: rand.New(rand.NewSource(5)), nextQ: 1}
	var err error
	if w.net, err = multicast.NewNetwork(channels); err != nil {
		t.Fatal(err)
	}
	if w.s, err = New(w.rel, w.net, Config{Model: testModel, Seed: 3, Strategy: chanalloc.BestOfBoth}); err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < channels; ch++ {
		q := multicast.NewQueue(1<<14, multicast.Block)
		if err := w.net.Attach(q, ch); err != nil {
			t.Fatal(err)
		}
		w.queues = append(w.queues, q)
	}
	w.insert(2000)
	for c := 0; c < 8; c++ {
		for k := 0; k < 3; k++ {
			w.subscribe(t, c, w.region())
		}
	}
	// A region past the bounds, one over all of them, and an empty one.
	w.subscribe(t, 8, geom.R(b.MaxX+1, b.MaxY+1, b.MaxX+2, b.MaxY+2))
	w.subscribe(t, 9, geom.R(b.MinX-b.Width(), b.MinY-b.Height(), b.MaxX+b.Width(), b.MaxY+b.Height()))
	w.subscribe(t, 9, geom.EmptyRect())
	return w
}

// point draws a position over the bounds widened by a fifth on every
// side, so about a third of the points lie outside them.
func (w *oracleWorld) point() geom.Point {
	b := w.rel.Bounds()
	return geom.Pt(b.MinX+(w.rng.Float64()*1.4-0.2)*b.Width(), b.MinY+(w.rng.Float64()*1.4-0.2)*b.Height())
}

// region draws a rectangle up to a fifth of the bounds on each axis,
// cornered anywhere over the widened bounds.
func (w *oracleWorld) region() geom.Rect {
	b, p := w.rel.Bounds(), w.point()
	return geom.R(p.X, p.Y, p.X+w.rng.Float64()*0.2*b.Width(), p.Y+w.rng.Float64()*0.2*b.Height())
}

func (w *oracleWorld) subscribe(t *testing.T, client int, r geom.Region) {
	t.Helper()
	if err := w.s.Subscribe(client, query.Query{ID: w.nextQ, Region: r}); err != nil {
		t.Fatal(err)
	}
	w.nextQ++
}

func (w *oracleWorld) insert(n int) {
	for i := 0; i < n; i++ {
		w.live = append(w.live, w.rel.Insert(w.point(), []byte("payload")))
	}
}

// churn inserts n tuples and deletes n/4 live ones, some of them
// inserted in this same period.
func (w *oracleWorld) churn(n int) {
	w.insert(n)
	for i := 0; i < n/4; i++ {
		k := w.rng.Intn(len(w.live))
		w.rel.Delete(w.live[k])
		w.live[k] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	}
}

// publish runs one round of cy and returns its messages per channel,
// after checking each against the brute-force oracle: the relation's
// tuples (all live ones for a full answer, those past the watermark for
// a delta) and the period's deletions, each tested with Contains against
// the message's merged region.
func (w *oracleWorld) publish(t *testing.T, cy *Cycle, delta bool, tag string) [][]capturedMsg {
	t.Helper()
	since := w.s.delivered
	var err error
	if delta {
		_, err = w.s.PublishDelta(cy)
	} else {
		_, err = w.s.Publish(cy)
	}
	if err != nil {
		t.Fatal(err)
	}
	source := w.rel.All()
	if delta && since > 0 {
		source = w.rel.InsertedSince(since)
	}
	var deleted []relation.Tuple
	if since > 0 {
		deleted = w.rel.DeletedSince(since)
	}
	got := make([][]capturedMsg, len(w.queues))
	for ch, q := range w.queues {
		for _, msg := range queued(q) {
			got[ch] = append(got[ch], capture(msg))
		}
	}
	next := make([]int, len(w.queues))
	for _, mp := range cy.publishPlans(w.s.cfg.Procedure) {
		if next[mp.ch] >= len(got[mp.ch]) {
			t.Fatalf("%s: channel %d carries %d messages, the plan more", tag, mp.ch, len(got[mp.ch]))
		}
		msg := got[mp.ch][next[mp.ch]]
		next[mp.ch]++
		var wantTuples []relation.Tuple
		for _, tu := range source {
			if mp.region.Contains(tu.Pos) {
				wantTuples = append(wantTuples, tu)
			}
		}
		var wantRemoved []uint64
		for _, tu := range deleted {
			if mp.region.Contains(tu.Pos) {
				wantRemoved = append(wantRemoved, tu.ID)
			}
		}
		if !reflect.DeepEqual(msg.Tuples, wantTuples) {
			t.Fatalf("%s: channel %d message %d: %d tuples, brute force %d", tag, mp.ch, next[mp.ch]-1, len(msg.Tuples), len(wantTuples))
		}
		if !reflect.DeepEqual(msg.Removed, wantRemoved) {
			t.Fatalf("%s: channel %d message %d: removed %v, brute force %v", tag, mp.ch, next[mp.ch]-1, msg.Removed, wantRemoved)
		}
		if msg.Delta != delta || !reflect.DeepEqual(msg.Header, mp.header) {
			t.Fatalf("%s: channel %d message %d: delta %v header %v", tag, mp.ch, next[mp.ch]-1, msg.Delta, msg.Header)
		}
	}
	for ch := range got {
		if next[ch] != len(got[ch]) {
			t.Fatalf("%s: channel %d carries %d messages, the plan %d", tag, ch, len(got[ch]), next[ch])
		}
	}
	return got
}

// TestPublishMatchesBruteForce holds every message of both insert paths
// to the brute-force oracle, and the two paths to each other. World a
// publishes each planned cycle again and again, so from a cycle's second
// round on its inserts go through the cycle's region index; its twin b
// publishes a fresh copy of the same plan every round (samePlan), so its
// inserts always go through the per-round batch grid. The rounds cover a
// bootstrap, deltas with churn between them, a full publish with
// deletions, and a second plan whose first round is a delta; the worlds
// run on square bounds and on fanout's 256×1 strip, with tuples and
// regions past the bounds and an empty region.
func TestPublishMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bounds   geom.Rect
		nx, ny   int
		channels int
	}{
		{"square", geom.R(0, 0, 1000, 1000), 16, 16, 3},
		{"strip", geom.R(0, 0, 256, 1), 256, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newOracleWorld(t, tc.bounds, tc.nx, tc.ny, tc.channels)
			b := newOracleWorld(t, tc.bounds, tc.nx, tc.ny, tc.channels)
			defer a.net.Close()
			defer b.net.Close()
			var cyA, cyB *Cycle
			plan := func() {
				var err error
				if cyA, err = a.s.Plan(); err != nil {
					t.Fatal(err)
				}
				if cyB, err = b.s.Plan(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cyA.ChannelPlans, cyB.ChannelPlans) {
					t.Fatal("twin worlds planned different cycles")
				}
			}
			round := func(delta bool, tag string) {
				a.churn(120)
				b.churn(120)
				got := a.publish(t, cyA, delta, tag+" (plan reused)")
				want := b.publish(t, samePlan(cyB), delta, tag+" (plan fresh)")
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the region index and the batch grid published different streams", tag)
				}
			}
			plan()
			round(true, "bootstrap")
			for i := 0; i < 3; i++ {
				round(true, fmt.Sprintf("delta %d", i))
			}
			round(false, "full")
			round(true, "delta after full")
			if n := cyA.publishes.Load(); n != 6 || cyA.regions == nil {
				t.Fatalf("first plan: %d rounds, index built %v", n, cyA.regions != nil)
			}

			// A second plan, first published as a delta.
			a.subscribe(t, 3, a.region())
			b.subscribe(t, 3, b.region())
			plan()
			for i := 0; i < 3; i++ {
				round(true, fmt.Sprintf("second plan, delta %d", i))
			}
		})
	}
}

// TestConcurrentPublishOneCycle publishes one cycle from two goroutines
// at once, each churning the relation between its rounds. The cycle has
// never been published and there are deletions to match, so the two
// first rounds race to build the cycle's region index; under -race its
// one-time build and the shared round counter that picks the insert
// path are checked against both. A last round, alone, must still match
// the brute-force oracle.
func TestConcurrentPublishOneCycle(t *testing.T) {
	w := newOracleWorld(t, geom.R(0, 0, 1000, 1000), 16, 16, 2)
	defer w.net.Close()
	cy, err := w.s.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Set the watermark with a copy, so cy's first rounds are the racing
	// ones.
	if _, err := w.s.PublishDelta(samePlan(cy)); err != nil {
		t.Fatal(err)
	}
	w.churn(200)
	for _, q := range w.queues {
		queued(q)
	}

	stop := make(chan struct{})
	var drain sync.WaitGroup
	for _, q := range w.queues {
		drain.Add(1)
		go func() {
			defer drain.Done()
			for {
				select {
				case <-stop:
					return
				default:
					queued(q)
				}
			}
		}()
	}
	var mu sync.Mutex // the world's rng and live list are not concurrent
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := w.s.PublishDelta(cy); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				w.churn(40)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	drain.Wait()
	for _, q := range w.queues {
		queued(q)
	}
	if n := cy.publishes.Load(); n != 20 {
		t.Fatalf("%d rounds counted, want 20", n)
	}
	w.churn(100)
	w.publish(t, cy, true, "after the race")
}
