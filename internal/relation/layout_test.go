package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"qsub/internal/geom"
)

// keepUnlaid marks r's grid as laid out as of now, so its next rank-table
// build walks the cells as Insert left them: an unlaid twin to compare a
// laid-out relation against.
func keepUnlaid(r *Relation) {
	r.mu.Lock()
	r.index.laidOut = r.index.entries
	r.mu.Unlock()
}

// checkLaidOut fails unless every cell of g starts where the cells before
// it end, capacities included: one backing array in cell order.
func checkLaidOut(t *testing.T, g *gridIndex, stage string) {
	t.Helper()
	var base uintptr
	off := 0
	for c, cell := range g.cells {
		if cap(cell) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(cell)))
		if base == 0 {
			base = p
		}
		if want := base + uintptr(off)*unsafe.Sizeof(gridEntry{}); p != want {
			t.Fatalf("%s: cell %d starts at +%d bytes, want +%d", stage, c, p-base, want-base)
		}
		off += cap(cell)
	}
}

// sameCells fails unless a and b file the same entries, in the same order,
// under every cell.
func sameCells(t *testing.T, a, b *gridIndex, stage string) {
	t.Helper()
	for c := range a.cells {
		if !slices.Equal(a.cells[c], b.cells[c]) {
			t.Fatalf("%s: cell %d holds %v, the twin %v", stage, c, a.cells[c], b.cells[c])
		}
	}
}

// sameAnswers fails unless rel and its unlaid twin answer SearchAppend,
// SizeBytesRect, NewRankTable and Delta alike, to the bit, over random
// rectangles and a polygon (payloads compare by content: a snapshot
// restores an empty one as nil). The twin's table is built unlaid.
func sameAnswers(t *testing.T, rel, twin *Relation, rng *rand.Rand, nx int, mark uint64, stage string) {
	t.Helper()
	pts := twin.All()
	rects := make([]geom.Rect, 40)
	for k := range rects {
		rects[k] = randomRect(rng, nx, pts)
	}
	regions := []geom.Region{geom.Polygon{geom.Pt(10, 10), geom.Pt(90, 20), geom.Pt(50, 95)}}
	for _, q := range rects {
		regions = append(regions, q)
		if a, b := rel.SizeBytesRect(q), twin.SizeBytesRect(q); a != b {
			t.Fatalf("%s: SizeBytesRect(%v) = %d, twin %d", stage, q, a, b)
		}
	}
	var got, want []Tuple
	for _, region := range regions {
		got, want = rel.SearchAppend(region, got[:0]), twin.SearchAppend(region, want[:0])
		if !sameTuples(got, want) {
			t.Fatalf("%s: SearchAppend(%v) = %v, twin %v", stage, region, tupleIDs(got), tupleIDs(want))
		}
	}
	keepUnlaid(twin)
	if a, b := rel.NewRankTable(rects), twin.NewRankTable(rects); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: the rank tables differ", stage)
	}
	da, db := rel.Delta(mark), twin.Delta(mark)
	if !sameTuples(da.Inserted(), db.Inserted()) || !sameTuples(da.Deleted(), db.Deleted()) {
		t.Fatalf("%s: Delta(%d) differs from the twin's", stage, mark)
	}
	for _, region := range regions {
		got, want = da.SearchAppend(region, got[:0]), db.SearchAppend(region, want[:0])
		if !sameTuples(got, want) {
			t.Fatalf("%s: DeltaIndex.SearchAppend(%v) = %v, twin %v", stage, region, tupleIDs(got), tupleIDs(want))
		}
	}
}

// cellCenter returns the center of cell c of g.
func cellCenter(g *gridIndex, c int) geom.Point {
	i, j := c%g.nx, c/g.nx
	return geom.Pt(
		g.bounds.MinX+(float64(i)+0.5)*g.bounds.Width()/float64(g.nx),
		g.bounds.MinY+(float64(j)+0.5)*g.bounds.Height()/float64(g.ny))
}

// TestLayOutKeepsCells lays a relation out through its first rank-table
// build, then inserts into a full cell and into a cell with spare
// capacity and deletes. Every cell keeps its entries in their old order,
// only the full cell leaves the backing array, and every answer is the
// unlaid twin's.
func TestLayOutKeepsCells(t *testing.T) {
	const nx = 16
	rel, twin := MustNew(testBounds, nx, nx), MustNew(testBounds, nx, nx)
	both := func(p geom.Point, payload []byte) uint64 {
		twin.Insert(p, payload)
		return rel.Insert(p, payload)
	}
	rng := rand.New(rand.NewSource(31))
	ids := insertVaried(rng, 3000, nx, both)
	mark := rel.MaxID()
	for _, id := range ids[:300] {
		rel.Delete(id)
		twin.Delete(id)
	}
	keepUnlaid(twin)

	if !rel.index.layOutDue() {
		t.Fatal("a grid never laid out is not due")
	}
	rel.NewRankTable([]geom.Rect{geom.R(10, 10, 20, 20)})
	g := rel.index
	if g.layOutDue() || g.laidOut != g.entries {
		t.Fatalf("after the first build: laid out at %d of %d entries", g.laidOut, g.entries)
	}
	checkLaidOut(t, g, "laid out")
	sameCells(t, g, twin.index, "laid out")
	sameAnswers(t, rel, twin, rng, nx, mark, "laid out")

	full, spare := -1, -1
	for c, cell := range g.cells {
		switch {
		case len(cell) > 0 && len(cell) == cap(cell) && full < 0:
			full = c
		case len(cell) > 0 && len(cell) < cap(cell) && spare < 0:
			spare = c
		}
	}
	if full < 0 || spare < 0 {
		t.Fatalf("no full cell (%d) or no cell with spare capacity (%d) to insert into", full, spare)
	}
	starts := make([]*gridEntry, len(g.cells))
	lens := make([]int, len(g.cells))
	for c, cell := range g.cells {
		starts[c], lens[c] = unsafe.SliceData(cell), len(cell)
	}
	both(cellCenter(g, full), []byte("full"))
	both(cellCenter(g, spare), []byte("spare"))
	for _, id := range ids[300:400] {
		rel.Delete(id)
		twin.Delete(id)
	}
	for c, cell := range g.cells {
		moved := unsafe.SliceData(cell) != starts[c]
		grew := len(cell) - lens[c]
		switch {
		case c == full && (!moved || grew != 1):
			t.Fatalf("the full cell %d: moved %v, grew by %d", c, moved, grew)
		case c != full && moved:
			t.Fatalf("cell %d moved; only the full cell %d may", c, full)
		case c == spare && grew != 1:
			t.Fatalf("the spare cell %d grew by %d in place", c, grew)
		case c != full && c != spare && grew != 0:
			t.Fatalf("cell %d grew by %d", c, grew)
		}
	}
	if g.layOutDue() {
		t.Fatal("two inserts made a layout due")
	}
	sameCells(t, g, twin.index, "after writes")
	sameAnswers(t, rel, twin, rng, nx, mark, "after writes")

	// Doubling the entries makes the next build lay out again.
	insertVaried(rng, g.entries, nx, both)
	if !g.layOutDue() {
		t.Fatalf("%d entries against %d laid out is not due", g.entries, g.laidOut)
	}
	sameAnswers(t, rel, twin, rng, nx, mark, "after doubling")
	checkLaidOut(t, rel.index, "after doubling")
	sameCells(t, rel.index, twin.index, "after doubling")
}

// TestBulkRebuildsLaidOut checks that Compact and ReadSnapshot leave the
// grid laid out and answering as a twin filed one Insert at a time does.
func TestBulkRebuildsLaidOut(t *testing.T) {
	const nx = 12
	rel := MustNew(testBounds, nx, nx)
	rng := rand.New(rand.NewSource(32))
	ids := insertVaried(rng, 2500, nx, rel.Insert)
	for _, id := range ids[:700] {
		rel.Delete(id)
	}
	// twin restores the live tuples one at a time, keeping their ids.
	twin := MustNew(testBounds, nx, nx)
	for _, tu := range rel.All() {
		if err := twin.restore(tu); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := rel.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	rel.Compact(rel.MaxID())
	if g := rel.index; g.laidOut != g.entries || g.entries != twin.index.entries || g.layOutDue() {
		t.Fatalf("after Compact: laid out at %d of %d entries, twin %d", g.laidOut, g.entries, twin.index.entries)
	}
	checkLaidOut(t, rel.index, "after Compact")
	sameCells(t, rel.index, twin.index, "after Compact")
	sameAnswers(t, rel, twin, rng, nx, 0, "after Compact")

	restored, err := ReadSnapshot(&snap, nx, nx)
	if err != nil {
		t.Fatal(err)
	}
	if g := restored.index; g.laidOut != g.entries || g.layOutDue() {
		t.Fatalf("after ReadSnapshot: laid out at %d of %d entries", g.laidOut, g.entries)
	}
	checkLaidOut(t, restored.index, "after ReadSnapshot")
	sameCells(t, restored.index, twin.index, "after ReadSnapshot")
	sameAnswers(t, restored, twin, rng, nx, 0, "after ReadSnapshot")

	// The restored relation keeps taking writes as the twin does.
	for k := 0; k < 3; k++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		restored.Insert(p, nil)
		twin.Insert(p, nil)
	}
	sameAnswers(t, restored, twin, rng, nx, 0, "after writes on the restored relation")
}

// TestLayOutUnderConcurrentReaders runs SearchAppend and SizeBytesRect
// readers while two rank-table builds, as shard workers make them, find a
// layout due at once: under -race it checks the layout takes the write
// lock, and every reader and both tables must answer as before it.
func TestLayOutUnderConcurrentReaders(t *testing.T) {
	const nx = 32
	rel := MustNew(testBounds, nx, nx)
	rng := rand.New(rand.NewSource(33))
	queries := make([]geom.Rect, 16)
	for round := 0; round < 3; round++ {
		insertVaried(rng, 2000<<round, nx, rel.Insert)
		for k := range queries {
			queries[k] = randomRect(rng, nx, nil)
		}
		wantSize := make([]int, len(queries))
		wantSearch := make([][]Tuple, len(queries))
		for k, q := range queries {
			wantSize[k], wantSearch[k] = bruteSize(rel, q), bruteSearch(rel.All(), q)
		}
		if !rel.index.layOutDue() {
			t.Fatalf("round %d: no layout due at %d entries, %d laid out", round, rel.index.entries, rel.index.laidOut)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []Tuple
				for k := 0; ; k = (k + 1) % len(queries) {
					select {
					case <-stop:
						return
					default:
					}
					if got := rel.SizeBytesRect(queries[k]); got != wantSize[k] {
						t.Errorf("SizeBytesRect(%v) = %d, want %d", queries[k], got, wantSize[k])
						return
					}
					if buf = rel.SearchAppend(queries[k], buf[:0]); !sameTuples(buf, wantSearch[k]) {
						t.Errorf("SearchAppend(%v) = %v, want %v", queries[k], tupleIDs(buf), tupleIDs(wantSearch[k]))
						return
					}
				}
			}()
		}
		tables := make([]*RankTable, 2)
		var builders sync.WaitGroup
		start := make(chan struct{})
		for b := range tables {
			builders.Add(1)
			go func() {
				defer builders.Done()
				<-start
				tables[b] = rel.NewRankTable(queries)
			}()
		}
		close(start)
		builders.Wait()
		close(stop)
		wg.Wait()

		if g := rel.index; g.layOutDue() || g.laidOut != g.entries {
			t.Fatalf("round %d: laid out at %d of %d entries", round, g.laidOut, g.entries)
		}
		checkLaidOut(t, rel.index, fmt.Sprintf("round %d", round))
		if !reflect.DeepEqual(tables[0], tables[1]) {
			t.Fatalf("round %d: the two concurrent builds differ", round)
		}
		for k, q := range queries {
			if got := tables[0].Size(k); got != float64(wantSize[k]) {
				t.Fatalf("round %d: table Size(%d) = %v, want %d for %v", round, k, got, wantSize[k], q)
			}
		}
	}
}
