package core

import (
	"testing"

	"qsub/internal/cost"
	"qsub/internal/geom"
)

// profitTable is Pair Merging as §6.2.1 states it, and the oracle the
// heap engine is pinned against: pair deltas cached in a triangular
// Profit Table (recomputed for every pair on every iteration when naive),
// the best pair found by a full scan each iteration, keeping the first
// strictly greater delta. It is the engine PairMerge ran before the heap.
type profitTable struct{ naive bool }

func (pt profitTable) Name() string {
	if pt.naive {
		return "profit-table-naive"
	}
	return "profit-table"
}

// ptSet is one live set during the table-driven merge along with its
// cached merged size.
type ptSet struct {
	queries []int
	merged  float64
}

func (pt profitTable) Solve(inst *Instance) Plan {
	n := inst.N
	sets := make([]*ptSet, n)
	for i := 0; i < n; i++ {
		sets[i] = &ptSet{queries: []int{i}, merged: inst.Sizer.Size(i)}
	}

	delta := func(a, b *ptSet) (float64, []int) {
		union := make([]int, 0, len(a.queries)+len(b.queries))
		union = append(union, a.queries...)
		union = append(union, b.queries...)
		rm := inst.Sizer.MergedSize(union)
		d := inst.Model.KM +
			inst.Model.KT*(a.merged+b.merged-rm) +
			inst.Model.KU*(float64(len(a.queries))*a.merged+float64(len(b.queries))*b.merged-float64(len(union))*rm)
		return d, union
	}

	// profit[i][j] (i < j) caches Δ-cost of merging sets i and j; valid
	// bits are invalidated when either endpoint changes.
	type entry struct {
		d     float64
		union []int
		valid bool
	}
	profit := make([][]entry, len(sets))
	for i := range profit {
		profit[i] = make([]entry, len(sets))
	}

	for len(sets) > 1 {
		// One iteration scans up to len(sets)² pairs; charge the budget
		// proportionally so deadlines trip between iterations.
		if !inst.Budget.Step(int64(len(sets))) {
			break
		}
		bestI, bestJ := -1, -1
		bestD := 0.0
		var bestUnion []int
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				var d float64
				var union []int
				if !pt.naive && profit[i][j].valid {
					d, union = profit[i][j].d, profit[i][j].union
				} else {
					d, union = delta(sets[i], sets[j])
					if !pt.naive {
						profit[i][j] = entry{d: d, union: union, valid: true}
					}
				}
				if d > bestD {
					bestD, bestI, bestJ, bestUnion = d, i, j, union
				}
			}
		}
		if bestI < 0 {
			break // no positive entry in the profit table
		}
		// Replace set bestI with the union, drop set bestJ by moving
		// the last set into its slot, and invalidate affected entries.
		sets[bestI] = &ptSet{queries: bestUnion, merged: inst.Sizer.MergedSize(bestUnion)}
		last := len(sets) - 1
		sets[bestJ] = sets[last]
		sets = sets[:last]
		if !pt.naive {
			for k := 0; k < len(sets); k++ {
				// Entries touching the merged slot bestI are stale.
				lo, hi := min(k, bestI), max(k, bestI)
				profit[lo][hi].valid = false
				// Entries touching slot bestJ now describe the
				// moved set, so they are stale too.
				if bestJ < len(sets) {
					lo, hi = min(k, bestJ), max(k, bestJ)
					profit[lo][hi].valid = false
				}
				// Entries that referred to the moved set at its
				// old position (last) are out of range now.
			}
		}
	}

	plan := make(Plan, len(sets))
	for i, s := range sets {
		plan[i] = s.queries
	}
	return plan.Normalize()
}

// TestPairMergeTieBreakMatchesTable pins the candidate heap's tie rule to
// the table scan's: three identical queries, every pair the same profit,
// and room for one merge only. The scan keeps the first pair it sees,
// (0, 1); so must the heap, unpruned and on a ±1 window.
func TestPairMergeTieBreakMatchesTable(t *testing.T) {
	inst := &Instance{
		N:     3,
		Model: cost.Model{KM: 10, KT: 1, KU: 1},
		Sizer: cost.Func{
			SizeFn: func(int) float64 { return 10 },
			MergedFn: func(set []int) float64 {
				if len(set) == 2 {
					return 10
				}
				return 1000 // no set of three is worth a message saved
			},
		},
		Centers: []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)},
	}
	want := Plan{{0, 1}, {2}}
	if got := (profitTable{}).Solve(inst); !got.Equal(want) {
		t.Fatalf("table oracle = %v, want %v", got, want)
	}
	for _, pm := range []PairMerge{{}, {Neighbors: 1}} {
		if got := pm.Solve(inst); !got.Equal(want) {
			t.Fatalf("%+v = %v, table scan %v", pm, got, want)
		}
	}
}
