package core

import (
	"sort"

	"qsub/internal/geom"
	"qsub/internal/morton"
)

// NeighborIndex orders queries along a Z-order (Morton) curve over their
// representative centers, so "the k nearest spatial neighbors of query q"
// can be approximated by the ±k window around q's position in curve
// order. Queries close in space share long Morton prefixes and therefore
// land close on the curve, which is the same locality argument behind
// the internal/shard Z-order shard key — here it prunes the candidate
// pair space of the greedy solvers from O(n²) to O(n·k).
//
// The window is an approximation of true k-nearest-neighbors (a Z-curve
// has seams where spatially close points are far apart in curve order),
// which is fine for a candidate generator: missing a candidate can only
// cost plan quality, never validity, and at k ≥ n the window covers every
// other query so the pruned solvers coincide with the exact ones.
type NeighborIndex struct {
	// order lists query indices sorted by (Morton code, index).
	order []int
	// pos is the inverse permutation: pos[q] is q's rank in order.
	pos []int
}

// NewNeighborIndex builds the curve ordering for the given centers.
// Ties (identical codes, e.g. duplicate centers) break by query index so
// the ordering — and every plan derived from it — is deterministic.
func NewNeighborIndex(centers []geom.Point) *NeighborIndex {
	n := len(centers)
	lo, hi := centers[0], centers[0]
	for _, c := range centers[1:] {
		if c.X < lo.X {
			lo.X = c.X
		}
		if c.Y < lo.Y {
			lo.Y = c.Y
		}
		if c.X > hi.X {
			hi.X = c.X
		}
		if c.Y > hi.Y {
			hi.Y = c.Y
		}
	}
	codes := make([]uint64, n)
	for i, c := range centers {
		codes[i] = morton.Code2(
			morton.Normalize(c.X, lo.X, hi.X),
			morton.Normalize(c.Y, lo.Y, hi.Y),
		)
	}
	idx := &NeighborIndex{
		order: make([]int, n),
		pos:   make([]int, n),
	}
	for i := range idx.order {
		idx.order[i] = i
	}
	sort.Slice(idx.order, func(a, b int) bool {
		qa, qb := idx.order[a], idx.order[b]
		if codes[qa] != codes[qb] {
			return codes[qa] < codes[qb]
		}
		return qa < qb
	})
	for rank, q := range idx.order {
		idx.pos[q] = rank
	}
	return idx
}

// window returns the first and last curve rank of the ±k window around
// query q, clamped to the curve; order[lo..hi] includes q itself. With
// k ≥ n it spans every query. Pairs walks it to seed the greedy heaps,
// and the pruned solvers walk it to find a changed set's neighborhood.
func (ni *NeighborIndex) window(q, k int) (lo, hi int) {
	p := ni.pos[q]
	return max(p-k, 0), min(p+k, len(ni.order)-1)
}
