package server

import (
	"reflect"

	"qsub/internal/geom"
	"qsub/internal/query"
)

// subKey identifies one subscription across planning cycles. Query ids
// are only unique per client (§3.1), so the owning client is part of
// the key.
type subKey struct {
	owner int
	id    query.ID
}

// sameRegion compares two query footprints; rectangles, the common case,
// without reflection.
func sameRegion(a, b geom.Region) bool {
	ra, aok := a.(geom.Rect)
	rb, bok := b.(geom.Rect)
	if aok || bok {
		return aok && bok && ra == rb
	}
	return reflect.DeepEqual(a, b)
}

// Replan refreshes a previous cycle after subscription churn (§11)
// instead of planning from scratch: it inherits prev's channel
// allocation, re-solves the (channel, shard) tasks whose input changed
// and takes every other task over from prev (shard.Plan with
// Problem.Prev). A joined client is placed under the kept shard →
// channel map. The current subscriptions are diffed against prev on
// (owner, query id). What was not solved again keeps the size estimates
// it was solved under: gradual estimator drift is the drift monitor's
// job, which escalates to Plan.
//
// Replan plans in full (Info.Mode says which happened) when there is
// nothing to inherit from: nil prev, a changed channel count, at one
// shard on more than one channel a changed client set (there is no
// shard → channel map to place a joined client under), or when the
// changes absorbed since the last full plan, this one included, exceed a
// quarter of the previous cycle — an allocation inherited that often has
// decayed. When nothing changed at all, prev is returned unmodified.
func (s *Server) Replan(prev *Cycle) (*Cycle, error) {
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	if prev != nil && len(prev.ChannelPlans) != s.net.Channels() {
		prev = nil
	}
	churn := 0
	if prev != nil {
		// A subscription that kept its id but changed its region is a
		// departure plus an arrival.
		prevRegion := make(map[subKey]geom.Region, len(prev.Queries))
		for i, q := range prev.Queries {
			prevRegion[subKey{prev.Owners[i], q.ID}] = q.Region
		}
		kept := 0
		for i, q := range snap.qs {
			if r, ok := prevRegion[subKey{snap.owners[i], q.ID}]; ok && sameRegion(r, q.Region) {
				kept++
			}
		}
		added, removed := len(snap.qs)-kept, len(prev.Queries)-kept
		if added == 0 && removed == 0 {
			return prev, nil
		}
		churn = prev.churn + added + removed
		if 4*churn > len(prev.Queries) {
			prev = nil
		}
	}
	return s.plan(snap, prev, churn)
}
