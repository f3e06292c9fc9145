package qsub

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestImportGraph pins the data flow — plan → publish → frame → fan-out
// → extract — in the package graph. A subscriber (the extractor, the
// client runtime and qsubctl) links neither the planner nor the node that
// serves it; a relay and the dashboard link no planner; the planner does
// not link the daemon around it. Edges are non-test imports, followed
// transitively.
func TestImportGraph(t *testing.T) {
	const module = "qsub/"
	imports := map[string][]string{} // package → its imports inside the module
	var load func(pkg string)
	load = func(pkg string) {
		if _, ok := imports[pkg]; ok {
			return
		}
		p, err := build.ImportDir(strings.TrimPrefix(pkg, module), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		imports[pkg] = []string{}
		for _, imp := range p.Imports {
			if strings.HasPrefix(imp, module) {
				imports[pkg] = append(imports[pkg], imp)
				load(imp)
			}
		}
	}
	// path returns the import chain from pkg to target, nil if there is
	// none.
	path := func(pkg, target string) []string {
		via := map[string]string{pkg: ""}
		for queue := []string{pkg}; len(queue) > 0; queue = queue[1:] {
			for _, imp := range imports[queue[0]] {
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = queue[0]
				if imp == target {
					chain := []string{imp}
					for p := queue[0]; p != ""; p = via[p] {
						chain = append(chain, p)
					}
					slices.Reverse(chain)
					return chain
				}
				queue = append(queue, imp)
			}
		}
		return nil
	}
	planner := []string{"daemon", "server", "shard", "core", "chanalloc", "trace"}
	for _, rule := range []struct {
		from, forbidden []string
	}{
		{[]string{"internal/client", "internal/netclient", "cmd/qsubctl"}, append([]string{"fanout"}, planner...)},
		{[]string{"internal/relay", "cmd/qsubtop"}, []string{"daemon", "server"}},
		{[]string{"internal/server"}, []string{"daemon"}},
	} {
		for _, from := range rule.from {
			from = module + from
			load(from)
			for _, bad := range rule.forbidden {
				if chain := path(from, module+"internal/"+bad); chain != nil {
					t.Errorf("%s reaches %s: %s", from, bad, strings.Join(chain, " → "))
				}
			}
		}
	}
}
