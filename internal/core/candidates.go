package core

// This file is the candidate stage the lazy-greedy solvers share: the
// §6.2.1 Pair Merging engine (pairmerge.go) and the §8.2 Fig 14 initial
// distribution (internal/chanalloc) both pick the most profitable pair
// from a max-heap seeded by one pair generator. Each caller keeps only its
// own rule: which profits enter the heap, what a pop does, and whether it
// pushes new pairs.

// Candidate is one candidate pair in a CandidateHeap: the profit of
// pairing a and b and, for Pair Merging, the merged size that profit was
// computed from. Entries are immutable; invalidation is lazy and left to
// the caller (an entry whose endpoint is gone is discarded when popped).
type Candidate struct {
	Profit float64
	Size   float64
	A, B   int
}

// candidateLess orders the heap: larger profit first, ties broken by
// smaller (A, B) so the pop order — and every plan or allocation built
// from it — is deterministic. Over pairs enumerated in (a, b)
// lexicographic order this is the "first strictly greater" rule of a
// table scan: the earliest maximum wins.
func candidateLess(x, y Candidate) bool {
	if x.Profit != y.Profit {
		return x.Profit > y.Profit
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// CandidateHeap is a max-heap of candidates under candidateLess. Fill it
// with append, call Init once, then Pop and Push.
type CandidateHeap []Candidate

// Init heapifies the entries in place.
func (h CandidateHeap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Push adds the entry and restores the heap invariant.
func (h *CandidateHeap) Push(c Candidate) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candidateLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the best entry. The heap must not be empty.
func (h *CandidateHeap) Pop() Candidate {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s[:last].siftDown(0)
	return top
}

func (h CandidateHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && candidateLess(h[l], h[best]) {
			best = l
		}
		if r < len(h) && candidateLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// Pairs generates the candidate pairs a greedy seeds its heap with, each
// unordered pair once as (a, b) with a < b, in ascending order of a. It
// has three sources:
//
//   - the full i<j triangle of n items, in lexicographic order;
//   - with a NeighborIndex, the pairs inside each item's ±k curve window,
//     partners in curve order: the window relation is symmetric, so
//     keeping only b > a still yields each pair once, and at k ≥ n it
//     yields exactly the triangle's pairs;
//   - with a pair-merge group's candidate lists (pairCands), the pairs of
//     the group that the lists name, partners in instance order.
//
// Every pair is charged one budget step before it is handed out; when the
// budget trips the generator stops for good, leaving the caller a partial
// seed.
type Pairs struct {
	n, k   int
	ni     *NeighborIndex
	cands  pairCands // the third source when cands.lists is set
	budget *Budget
	a      int // current first endpoint
	r, hi  int // next and last partner position of a: a rank in ni, a list position in cands, or b itself
}

// pairCands reads an instance's candidate lists for a group of its
// queries: local item a is query global[a], and local[q] is the local item
// of query q, or -1 outside the group (both nil when the group is the
// whole instance).
type pairCands struct {
	lists  *pairLists
	global []int
	local  []int32
}

// NewPairs returns the generator over n items: the ±k windows of ni, or
// the full triangle when ni is nil.
func NewPairs(n int, ni *NeighborIndex, k int, budget *Budget) Pairs {
	return Pairs{n: n, k: k, ni: ni, budget: budget, a: -1, hi: -1}
}

// Next returns the next pair, or ok == false once the pairs or the budget
// run out.
func (g *Pairs) Next() (a, b int, ok bool) {
	for {
		for g.r <= g.hi {
			switch b = g.r; {
			case g.ni != nil:
				b = g.ni.order[g.r]
			case g.cands.lists != nil:
				b = int(g.cands.lists.partners[g.r])
				if g.cands.local != nil {
					b = int(g.cands.local[b])
				}
			}
			g.r++
			if b <= g.a {
				continue
			}
			if !g.budget.Step(1) {
				g.a, g.hi = g.n, -1 // stop for good
				return 0, 0, false
			}
			return g.a, b, true
		}
		if g.a++; g.a >= g.n {
			return 0, 0, false
		}
		switch {
		case g.ni != nil:
			g.r, g.hi = g.ni.window(g.a, g.k)
		case g.cands.lists != nil:
			q := g.a
			if g.cands.global != nil {
				q = g.cands.global[q]
			}
			g.r, g.hi = int(g.cands.lists.start[q]), int(g.cands.lists.start[q+1])-1
		default:
			g.r, g.hi = g.a+1, g.n-1
		}
	}
}
