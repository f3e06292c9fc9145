package server

import (
	"reflect"
	"time"

	"qsub/internal/core"
	"qsub/internal/cost"
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
// allocation and solves again only around what changed. The current
// subscriptions are diffed against prev on (owner, query id).
//
// On the sharded path the (channel, shard) tasks whose input changed are
// re-solved and every other task is taken over from prev (shard.Plan
// with Problem.Prev); a joined client is placed under the kept shard →
// channel map. On the unsharded path departed queries are spliced out
// of their merged sets, new ones are spliced in on their owner's
// channel, and a neighbor-scoped local repair runs around the changed
// queries (core.Incremental), with sizes and costs recomputed against
// the current estimator on a fresh memo. Either way the refreshed
// cycle's EstimatedCost/InitialCost follow the same per-path conventions
// as Plan, so savings reports stay comparable, and what was not solved
// again keeps the size estimates it was solved under: gradual estimator
// drift is the drift monitor's job, which escalates to Plan.
//
// Replan plans in full (Info.Mode says which happened) when there is
// nothing to inherit from: nil prev, a changed channel count, on the
// unsharded path a changed client set on a multi-channel network
// (channel allocation would have to rerun), or when the changes absorbed
// since the last full plan, this one included, exceed a quarter of the
// previous cycle — local repair would grind through most of the
// instance, and an allocation inherited that often has decayed. When
// nothing changed at all, prev is returned unmodified.
func (s *Server) Replan(prev *Cycle) (*Cycle, error) {
	snap, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	clients, qs, owners := snap.clients, snap.qs, snap.owners
	channels := s.net.Channels()
	if prev == nil || len(prev.ChannelPlans) != channels {
		return s.plan(snap)
	}

	// Diff the subscription sets. prevToUnion maps every previous query
	// index into the union index space built below: survivors land on
	// their current index, departed queries on tail slots past len(qs).
	prevIdx := make(map[subKey]int, len(prev.Queries))
	for i, q := range prev.Queries {
		prevIdx[subKey{prev.Owners[i], q.ID}] = i
	}
	prevToUnion := make([]int, len(prev.Queries))
	for i := range prevToUnion {
		prevToUnion[i] = -1
	}
	// A subscription that kept its id but changed its region is a
	// departure plus an arrival.
	var added []int // current indices not in prev
	for i, q := range qs {
		if p, ok := prevIdx[subKey{owners[i], q.ID}]; ok && sameRegion(prev.Queries[p].Region, q.Region) {
			prevToUnion[p] = i
		} else {
			added = append(added, i)
		}
	}
	var removed []int // prev indices gone this cycle
	for p, u := range prevToUnion {
		if u < 0 {
			removed = append(removed, p)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return prev, nil
	}
	churn := prev.churn + len(added) + len(removed)
	if 4*churn > len(prev.Queries) {
		return s.plan(snap)
	}
	if s.cfg.Sharding.Enabled {
		return s.planSharded(snap, prev, churn)
	}

	single := channels == 1 || len(clients) == 1
	if channels > 1 {
		// Channel assignments are inherited from prev, so the client
		// set must be stable; a joined or departed client reruns the
		// §8 allocation via the full path.
		if len(prev.ClientChannel) != len(clients) {
			return s.plan(snap)
		}
		for _, id := range clients {
			if _, ok := prev.ClientChannel[id]; !ok {
				return s.plan(snap)
			}
		}
	}

	cat := s.cfg.Metrics
	start := time.Now()

	// Union instance: current queries first (so surviving plan sets
	// index straight into the new cycle), departed queries appended at
	// the tail so their merged sets can be unpicked before the tail is
	// dropped from the final plans.
	union := make([]query.Query, 0, len(qs)+len(removed))
	union = append(union, qs...)
	for j, p := range removed {
		prevToUnion[p] = len(qs) + j
		union = append(union, prev.Queries[p])
	}

	base := core.NewGeomInstance(s.cfg.Model, union, s.cfg.Procedure, s.cfg.Estimator)
	memo := cost.NewMemo(base.Sizer, base.N)
	if cat != nil {
		memo.SetMetrics(cat.MemoHits, cat.MemoMisses)
	}
	base.Metrics = s.solverMetrics()
	base.Sizer = memo

	cy := &Cycle{
		Queries:       qs,
		Owners:        owners,
		ClientChannel: make(map[int]int, len(clients)),
		ChannelPlans:  make([]core.Plan, channels),
		churn:         churn,
	}
	for _, id := range clients {
		if single {
			cy.ClientChannel[id] = 0
		} else {
			cy.ClientChannel[id] = prev.ClientChannel[id]
		}
	}
	listeners := make([]int, channels)
	for _, ch := range cy.ClientChannel {
		listeners[ch]++
	}
	chOf := func(owner int) int {
		if single {
			return 0
		}
		return cy.ClientChannel[owner]
	}

	var estimated float64
	for ch := 0; ch < channels; ch++ {
		// Per-channel model convention matches chanalloc.ChannelCost:
		// each channel's listeners pay the §7 filtering term; the
		// single-channel path keeps the raw model, as Plan does.
		model := s.cfg.Model
		if !single {
			model.KM += model.K6 * float64(listeners[ch])
		}
		instCh := &core.Instance{
			N:       base.N,
			Model:   model,
			Sizer:   memo,
			Overlap: base.Overlap,
			Centers: base.Centers,
			Metrics: base.Metrics,
		}
		// Reassemble the channel's previous partition in union index
		// space.
		var plan core.Plan
		for _, set := range prev.ChannelPlans[ch] {
			ns := make([]int, len(set))
			for k, p := range set {
				ns[k] = prevToUnion[p]
			}
			plan = append(plan, ns)
		}
		inc := core.NewIncremental(instCh, plan)
		for _, p := range removed {
			if chOf(prev.Owners[p]) == ch {
				inc.Remove(prevToUnion[p])
			}
		}
		for _, i := range added {
			if chOf(owners[i]) == ch {
				inc.Add(i)
			}
		}
		newPlan := inc.Plan().Normalize()
		cy.ChannelPlans[ch] = newPlan
		if len(newPlan) > 0 {
			estimated += instCh.Cost(newPlan)
			if !single {
				estimated += model.KD
			}
		}
	}
	cy.EstimatedCost = estimated

	// InitialCost under the same conventions as Plan: raw-model
	// singletons on the single path, per-listener-charged singletons
	// plus KD per used channel on the multi path.
	perChannelInit := make([]float64, channels)
	queriesOn := make([]int, channels)
	for i := range qs {
		ch := chOf(owners[i])
		km := s.cfg.Model.KM
		if !single {
			km += s.cfg.Model.K6 * float64(listeners[ch])
		}
		perChannelInit[ch] += km + s.cfg.Model.KT*memo.Size(i)
		queriesOn[ch]++
	}
	for ch := 0; ch < channels; ch++ {
		if queriesOn[ch] == 0 {
			continue
		}
		cy.InitialCost += perChannelInit[ch]
		if !single {
			cy.InitialCost += s.cfg.Model.KD
		}
	}

	return s.finishPlan(start, cy, PlanInfo{Mode: ModeIncremental}), nil
}
