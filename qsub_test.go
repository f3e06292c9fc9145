package qsub

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/multicast"
)

// TestFacadeKeepOrGo is the keep-or-go rule (DESIGN.md §2) for the
// facade: every exported name of qsub.go must be used by a checked
// example (example_test.go), by a command under cmd/, or by the signature
// of another exported facade function. A name nothing calls leaves the
// facade.
func TestFacadeKeepOrGo(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "qsub.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	used := map[string]bool{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
				// Names in the signature of another function count as
				// used; a function does not keep itself.
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name != d.Name.Name {
						used[id.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported names in qsub.go")
	}

	users, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	users = append(users, "example_test.go")
	for _, path := range users {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "qsub" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("qsub.%s is used by no example, command or facade signature: remove it", name)
	}
}

// TestFacadeEndToEnd exercises the public API the way the package
// documentation's quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	rel := NewRelation(R(0, 0, 1000, 1000), 10, 10)
	for x := 50.0; x < 1000; x += 100 {
		for y := 50.0; y < 1000; y += 100 {
			rel.Insert(geom.Pt(x, y), []byte("o"))
		}
	}
	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv, err := NewServer(rel, net, ServerConfig{Model: Model{KM: 500, KT: 1, KU: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q1 := RangeQuery(1, R(0, 0, 400, 400))
	q2 := RangeQuery(2, R(100, 100, 500, 500))
	c1 := NewClient(0, q1)
	c2 := NewClient(1, q2)
	if err := srv.Subscribe(0, q1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Subscribe(1, q2); err != nil {
		t.Fatal(err)
	}
	cy, err := srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if cy.EstimatedCost > cy.InitialCost {
		t.Fatalf("merging should not cost more than not merging: %g > %g",
			cy.EstimatedCost, cy.InitialCost)
	}
	var wg sync.WaitGroup
	for _, pair := range []struct {
		c  *Client
		id int
	}{{c1, 0}, {c2, 1}} {
		sub, err := net.Subscribe(cy.ClientChannel[pair.id], 16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client, sub *multicast.Subscription) {
			defer wg.Done()
			c.Consume(sub)
		}(pair.c, sub)
		defer sub.Cancel()
	}
	if _, err := srv.Publish(cy); err != nil {
		t.Fatal(err)
	}
	net.Close()
	wg.Wait()
	if got, want := len(c1.Answer(1)), len(rel.Search(q1.Region)); got != want {
		t.Fatalf("client 0 answer %d, want %d", got, want)
	}
	if got, want := len(c2.Answer(2)), len(rel.Search(q2.Region)); got != want {
		t.Fatalf("client 1 answer %d, want %d", got, want)
	}
}

// TestFacadeMergingAlgorithms checks the re-exported algorithms agree on
// a small instance.
func TestFacadeMergingAlgorithms(t *testing.T) {
	qs := []Query{
		RangeQuery(1, R(0, 0, 10, 10)),
		RangeQuery(2, R(5, 5, 15, 15)),
		RangeQuery(3, R(500, 500, 510, 510)),
	}
	inst := NewInstance(Model{KM: 100, KT: 1, KU: 1}, qs, BoundingRect{},
		UniformEstimator{Density: 1, BytesPerTuple: 1})
	opt := inst.Cost(Partition{}.Solve(inst))
	for _, algo := range []Algorithm{PairMerge{}, NoMerge{}} {
		plan := algo.Solve(inst)
		if !plan.IsPartition(3) {
			t.Fatalf("%s produced non-partition %v", algo.Name(), plan)
		}
		if c := inst.Cost(plan); c < opt-1e-9 {
			t.Fatalf("%s cost %g beats optimum %g", algo.Name(), c, opt)
		}
	}
	if got := inst.Cost(NoMerge{}.Solve(inst)); got != inst.InitialCost() {
		t.Fatalf("NoMerge cost %g != InitialCost %g", got, inst.InitialCost())
	}
}

// drain returns every message the subscription delivers until it ends
// (after Cancel or Close).
func drain(sub *multicast.Subscription) []multicast.Message {
	var out []multicast.Message
	for {
		batch, ok := sub.NextBatch()
		out = append(out, batch...)
		if !ok {
			return out
		}
	}
}

// TestGrandTour exercises the features a downstream adopter is likely
// to combine in one pipeline: overlapping range queries merged on one
// channel, a full cycle, then churn and delta cycles with deletions, every
// client's view converging to its query run on the relation.
func TestGrandTour(t *testing.T) {
	rel := NewRelation(R(0, 0, 600, 600), 16, 16)
	kinds := []string{"tank", "truck"}
	var ids []uint64
	for i := 0; i < 3000; i++ {
		x := float64(i%60) * 10
		y := float64((i/60)%50) * 12
		ids = append(ids, rel.Insert(geom.Pt(x, y), []byte(kinds[i%2])))
	}

	net, err := NewNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	srv, err := NewServer(rel, net, ServerConfig{Model: Model{KM: 100, KT: 1, KU: 0.3}})
	if err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		RangeQuery(1, R(0, 0, 300, 300)),
		RangeQuery(2, R(300, 0, 600, 300)),
		RangeQuery(3, R(150, 50, 450, 250)), // overlaps 1 and 2
		RangeQuery(4, R(0, 300, 200, 500)),
	}
	clients := map[int]*Client{}
	for i, q := range queries {
		clients[i] = NewClient(i, q)
		if err := srv.Subscribe(i, q); err != nil {
			t.Fatal(err)
		}
	}

	cy, err := srv.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := net.Subscribe(0, 8192)
	if err != nil {
		t.Fatal(err)
	}

	// Full cycle, then churn + two delta cycles.
	if _, err := srv.PublishDelta(cy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rel.Insert(geom.Pt(float64(i%60)*10+1, float64(i%50)*12+1), []byte("tank"))
	}
	for i := 0; i < 80; i++ {
		rel.Delete(ids[i*3])
	}
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := srv.PublishDelta(cy); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	for _, msg := range drain(sub) {
		for _, c := range clients {
			c.Handle(msg)
		}
	}

	for i, c := range clients {
		q := queries[i]
		got := c.Answer(q.ID)
		want := rel.Search(q.Region)
		if len(got) != len(want) {
			t.Fatalf("client %d: view %d tuples, database %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].ID != want[j].ID || string(got[j].Payload) != string(want[j].Payload) {
				t.Fatalf("client %d: tuple %d mismatch (%q vs %q)",
					i, j, got[j].Payload, want[j].Payload)
			}
		}
	}
}
