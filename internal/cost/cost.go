// Package cost implements the paper's cost model (§4):
//
//	Cost(M) = K_M·|M| + K_T·size(M) + K_U·U(Q,M)
//
// where |M| is the number of merged queries, size(M) the total answer size
// of the merged queries, and U(Q,M) the total irrelevant information
// shipped to clients. The package also provides the closed-form decision
// rules derived from the model: the 2-query merging rule (§5.1), the pair
// Δ-cost of the Pair Merging algorithm (§6.2.1) and the clustering
// eligibility bound (§6.3).
package cost

// Model holds the proportionality constants of the cost model. KM absorbs
// per-query server setup, logical channel maintenance and client filtering
// (k1 + k6·numClients + k4 in §4); KT absorbs per-byte processing and
// transmission (k2 + k3); KU is the per-byte cost of extracting irrelevant
// information at the clients (k5).
//
// KD is the per-channel maintenance coefficient from the §9 parameter
// list. The paper never defines it in a formula; we interpret it as a cost
// per multicast channel in use, charged by the channel allocator. With the
// default KD = 0 the §4 model is recovered exactly.
//
// K6 is the un-folded per-client-per-message filtering coefficient (k6 in
// §4). In the single-broadcast model it is part of KM (KM = k1 +
// k6·num(Clients) + k4); in the multicast model of §7 a client only
// filters the messages of its own channel, so the channel allocator
// charges K6·(listeners on channel) per merged query instead. Leave K6 =
// 0 to treat KM as fully folded.
type Model struct {
	KM float64
	KT float64
	KU float64
	KD float64
	K6 float64
}

// DefaultModel returns the constants the paper uses to show Equation 1 is
// satisfiable (§5.1): K_M = 10, K_T = 9, K_U = 4.
func DefaultModel() Model {
	return Model{KM: 10, KT: 9, KU: 4}
}

// Sizer abstracts the size(·) function over an instance of the query
// merging problem: queries are identified by index 0..n-1 and the sizer
// reports estimated answer sizes for single queries and merged sets. This
// indirection is what lets the same algorithms run over geographic
// queries, the set-cover reduction gadget of §5.2, and synthetic
// benchmarks.
type Sizer interface {
	// Size returns size(q_i), the estimated answer size of query i.
	Size(i int) float64
	// MergedSize returns size(mrg(S)) for the set S of query indices.
	// It must satisfy MergedSize([i]) == Size(i) and be monotone:
	// adding queries never shrinks the merged size. It must not retain
	// set: the solvers pass reused scratch slices.
	MergedSize(set []int) float64
}

// SetCost returns the cost contribution of one merged set under the model:
//
//	K_M + K_T·size(mrg(S)) + K_U·Σ_{q∈S}(size(mrg(S)) − size(q))
//
// An empty set costs nothing.
func SetCost(m Model, s Sizer, set []int) float64 {
	if len(set) == 0 {
		return 0
	}
	merged := s.MergedSize(set)
	irrelevant := 0.0
	for _, q := range set {
		irrelevant += merged - s.Size(q)
	}
	return m.KM + m.KT*merged + m.KU*irrelevant
}

// PlanCost returns the total cost of a partition of the queries into
// merged sets.
func PlanCost(m Model, s Sizer, plan [][]int) float64 {
	total := 0.0
	for _, set := range plan {
		total += SetCost(m, s, set)
	}
	return total
}

// Irrelevant returns U(Q,M) for the plan: the total irrelevant bytes
// shipped to clients.
func Irrelevant(s Sizer, plan [][]int) float64 {
	total := 0.0
	for _, set := range plan {
		if len(set) == 0 {
			continue
		}
		merged := s.MergedSize(set)
		for _, q := range set {
			total += merged - s.Size(q)
		}
	}
	return total
}

// TransmitSize returns size(M) for the plan: the total bytes the server
// transmits.
func TransmitSize(s Sizer, plan [][]int) float64 {
	total := 0.0
	for _, set := range plan {
		if len(set) > 0 {
			total += s.MergedSize(set)
		}
	}
	return total
}

// ShouldMergePair is the 2-query decision rule of §5.1: merging q1 and q2
// (with sizes s1, s2, merged size s3) is beneficial exactly when
//
//	K_M + K_T·(s1 + s2 − s3) + K_U·(s1 + s2 − 2·s3) > 0.
func ShouldMergePair(m Model, s1, s2, s3 float64) bool {
	return m.KM+m.KT*(s1+s2-s3)+m.KU*(s1+s2-2*s3) > 0
}

// PairDelta is the Δ-cost of the Pair Merging algorithm (§6.2.1): the
// decrease in total cost obtained by merging set a (p queries, individual
// sizes totaling Sa, merged size Ra) with set b (r queries, sizes totaling
// Sb, merged size Rb) into one set with merged size Rm:
//
//	Cost_old − Cost_new = K_M + K_T·(Ra + Rb − Rm) + K_U·(p·Ra + r·Rb − (p+r)·Rm)
//
// A positive value means merging reduces total cost. With p = r = 1 this
// reduces to the 2-query rule of §5.1.
func PairDelta(m Model, p int, ra float64, r int, rb float64, rm float64) float64 {
	return m.KM + m.KT*(ra+rb-rm) + m.KU*(float64(p)*ra+float64(r)*rb-float64(p+r)*rm)
}

// MergeEligible is the clustering bound of §6.3: two queries can possibly
// share a merged set only if the best-case gain of putting them together
// is positive. The best case saves one K_M, adds at least
// 2·size(mrg{q1,q2}) − s1 − s2 irrelevant bytes, and (when the overlap of
// the two queries is known) saves at most K_T·overlap transmitted bytes:
//
//	K_M − K_U·(2·m12 − s1 − s2) + K_T·overlap > 0
//
// Pass overlap = 0 when the intersection size is unknown to get the weaker
// (purely size-based) §6.3 condition.
func MergeEligible(m Model, s1, s2, m12, overlap float64) bool {
	return m.KM-m.KU*(2*m12-s1-s2)+m.KT*overlap > 0
}
