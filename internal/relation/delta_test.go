package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"qsub/internal/geom"
)

// deltaWorld builds an 8 × 8 grid relation with n tuples and some churn
// past the watermark: returns the relation and the watermark.
func deltaWorld(nBefore, nAfter, nDeleted int, seed int64) (*Relation, uint64) {
	rel := MustNew(geom.R(0, 0, 100, 100), 8, 8)
	rng := rand.New(rand.NewSource(seed))
	insert := func(n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), []byte("x"))
		}
		return ids
	}
	before := insert(nBefore)
	mark := rel.MaxID()
	after := insert(nAfter)
	// Delete a mix of pre- and post-watermark tuples.
	for i := 0; i < nDeleted; i++ {
		var pool []uint64
		if i%2 == 0 && len(before) > 0 {
			pool = before
		} else {
			pool = after
		}
		if len(pool) == 0 {
			continue
		}
		j := rng.Intn(len(pool))
		rel.Delete(pool[j])
	}
	return rel, mark
}

// naiveDeltaSearch is the oracle: full search filtered by watermark.
func naiveDeltaSearch(rel *Relation, region geom.Region, mark uint64) []Tuple {
	var out []Tuple
	for _, t := range rel.Search(region) {
		if t.ID > mark {
			out = append(out, t)
		}
	}
	return out
}

func TestDeltaIndexSearchMatchesFilteredFullSearch(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		// Both regimes: below and above the transient-grid cutover.
		for _, nAfter := range []int{deltaGridMinBatch - 10, 500} {
			rel, mark := deltaWorld(800, nAfter, 60, int64(nAfter))
			di := rel.Delta(mark)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 50; trial++ {
				x, y := rng.Float64()*90, rng.Float64()*90
				region := geom.R(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
				want := naiveDeltaSearch(rel, region, mark)
				got := di.SearchAppend(region, nil)
				if len(got) != len(want) {
					t.Fatalf("nAfter=%d trial %d: %d tuples, want %d", nAfter, trial, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("nAfter=%d trial %d pos %d: id %d, want %d (id order broken)",
							nAfter, trial, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	})
}

func TestDeltaIndexSearchAppendPreservesPrefix(t *testing.T) {
	rel, mark := deltaWorld(100, 200, 0, 3)
	di := rel.Delta(mark)
	prefix := []Tuple{{ID: 9999}}
	out := di.SearchAppend(geom.R(0, 0, 100, 100), prefix)
	if len(out) < 1 || out[0].ID != 9999 {
		t.Fatalf("prefix entry clobbered: %+v", out[:1])
	}
	for i := 2; i < len(out); i++ {
		if out[i-1].ID >= out[i].ID {
			t.Fatalf("appended tail not id-ordered at %d", i)
		}
	}
}

func TestDeltaIndexDeleted(t *testing.T) {
	rel, _ := deltaWorld(50, 0, 0, 1)
	mark := rel.MaxID()
	all := rel.All()
	// Delete three known tuples past the watermark.
	var victims []Tuple
	for _, t2 := range []int{3, 10, 20} {
		victims = append(victims, all[t2])
		rel.Delete(all[t2].ID)
	}
	di := rel.Delta(mark)
	if len(di.Deleted()) != 3 {
		t.Fatalf("Deleted: %d entries, want 3", len(di.Deleted()))
	}
	for i, v := range victims {
		if di.Deleted()[i].ID != v.ID {
			t.Fatalf("Deleted[%d] = id %d, want %d (deletion order)", i, di.Deleted()[i].ID, v.ID)
		}
	}
	// One-pass matching vs per-region Contains.
	regions := []geom.Region{
		geom.R(0, 0, 100, 100),
		geom.R(0, 0, victims[0].Pos.X+1, victims[0].Pos.Y+1),
		geom.EmptyRect(),
	}
	out := di.MatchDeletedAppend(regions, make([][]uint64, len(regions)))
	for i, region := range regions {
		var want []uint64
		for _, dt := range di.Deleted() {
			if region.Contains(dt.Pos) {
				want = append(want, dt.ID)
			}
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("region %d: matched %v, want %v", i, out[i], want)
		}
	}
}

func TestDeltaIndexSnapshotIsolation(t *testing.T) {
	rel, mark := deltaWorld(100, 300, 0, 5)
	di := rel.Delta(mark)
	nBefore := len(di.SearchAppend(geom.R(0, 0, 100, 100), nil))
	// Mutations after the snapshot must not leak into it.
	rel.Insert(geom.Pt(50, 50), []byte("late"))
	for _, t2 := range rel.InsertedSince(mark)[:5] {
		rel.Delete(t2.ID)
	}
	rel.Compact()
	nAfter := len(di.SearchAppend(geom.R(0, 0, 100, 100), nil))
	if nBefore != nAfter {
		t.Fatalf("snapshot changed after relation mutations: %d -> %d", nBefore, nAfter)
	}
}

func TestDeltaEmptyAndFullWatermark(t *testing.T) {
	rel, _ := deltaWorld(200, 0, 0, 2)
	// Watermark at MaxID: nothing inserted since.
	di := rel.Delta(rel.MaxID())
	if got := di.SearchAppend(geom.R(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatalf("delta past MaxID returned %d tuples", len(got))
	}
	// Watermark 0: everything is new.
	di = rel.Delta(0)
	if got, want := len(di.SearchAppend(geom.R(0, 0, 100, 100), nil)), rel.Len(); got != want {
		t.Fatalf("delta from 0 returned %d tuples, want %d", got, want)
	}
}

// TestDeletedSinceLongJournal checks the binary-searched journal against
// a linear filter at every kind of watermark over a long journal of
// deletes interleaved with inserts (both advance the watermark), and
// that restored ids, which jump the watermark, keep the journal ordered.
func TestDeletedSinceLongJournal(t *testing.T) {
	rel := MustNew(testBounds, 8, 8)
	rng := rand.New(rand.NewSource(21))
	type entry struct {
		id   uint64
		mark uint64 // watermark right after the delete
	}
	var journal []entry
	var live []uint64
	for k := 0; k < 6000; k++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			rel.Delete(live[i])
			journal = append(journal, entry{live[i], rel.MaxID()})
			live = append(live[:i], live[i+1:]...)
			continue
		}
		if k == 3000 {
			rel.restore(Tuple{ID: rel.MaxID() + 1000, Pos: geom.Pt(1, 1)})
			live = append(live, rel.MaxID())
			continue
		}
		live = append(live, rel.Insert(geom.Pt(rng.Float64()*100, rng.Float64()*100), nil))
	}
	if len(journal) < 1500 {
		t.Fatalf("journal has only %d entries", len(journal))
	}
	marks := []uint64{0, 1, rel.MaxID() - 1, rel.MaxID(), rel.MaxID() + 5}
	for k := 0; k < 200; k++ {
		e := journal[rng.Intn(len(journal))]
		marks = append(marks, e.mark-1, e.mark, e.mark+1)
	}
	for _, mark := range marks {
		var want []uint64
		for _, e := range journal {
			if e.mark > mark {
				want = append(want, e.id)
			}
		}
		for name, got := range map[string][]Tuple{
			"DeletedSince": rel.DeletedSince(mark),
			"Delta":        rel.Delta(mark).Deleted(),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s(%d): %d tuples, want %d", name, mark, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i] {
					t.Fatalf("%s(%d)[%d] = id %d, want %d", name, mark, i, got[i].ID, want[i])
				}
			}
		}
	}
}
