package cost

import "math/bits"

// QSet is a set of query indices represented as a bitset over []uint64
// words. It is the solver engine's working representation for merged
// sets: unions are word-wise ORs, membership is a bit test, and the words
// double as cache keys for the merged-size Memo. Instances with n ≤ 64
// queries use a single word, so the hot operations compile down to a few
// integer instructions with no per-probe allocation.
//
// A QSet is sized for a fixed instance at creation (NewQSet); all
// operands of the binary operations must come from the same instance.
type QSet []uint64

// QSetWords returns the number of 64-bit words needed for n queries.
// Every instance gets at least one word so the single-word fast path is
// always available.
func QSetWords(n int) int {
	w := (n + 63) / 64
	if w < 1 {
		w = 1
	}
	return w
}

// NewQSet returns an empty set sized for queries 0..n-1.
func NewQSet(n int) QSet {
	return make(QSet, QSetWords(n))
}

// QSetOf returns the set {set...} sized for queries 0..n-1.
func QSetOf(set []int, n int) QSet {
	s := NewQSet(n)
	for _, q := range set {
		s.Add(q)
	}
	return s
}

// Add inserts query i into the set.
func (s QSet) Add(i int) {
	s[i>>6] |= 1 << uint(i&63)
}

// Remove deletes query i from the set.
func (s QSet) Remove(i int) {
	s[i>>6] &^= 1 << uint(i&63)
}

// Contains reports whether query i is in the set.
func (s QSet) Contains(i int) bool {
	return s[i>>6]&(1<<uint(i&63)) != 0
}

// Or adds every member of t to s (s ∪= t). Both sets must be sized for
// the same instance.
func (s QSet) Or(t QSet) {
	if len(s) == 1 { // single-word fast path
		s[0] |= t[0]
		return
	}
	for w := range s {
		s[w] |= t[w]
	}
}

// Reset empties the set in place.
func (s QSet) Reset() {
	for w := range s {
		s[w] = 0
	}
}

// Empty reports whether the set has no members.
func (s QSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// First returns the smallest member, or -1 for the empty set.
func (s QSet) First() int {
	for wi, w := range s {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendIndices appends the members in ascending order to buf and returns
// the extended slice. Passing a reused scratch buffer keeps set-union
// probes allocation-free.
func (s QSet) AppendIndices(buf []int) []int {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}

// Hash returns a 64-bit mixing hash of the words, used to pick a Memo
// shard and to build hashed keys.
func (s QSet) Hash() uint64 {
	if len(s) == 1 { // single-word fast path
		return mix64(s[0])
	}
	h := uint64(1469598103934665603) // FNV offset basis
	for _, w := range s {
		h ^= w
		h *= 1099511628211
		h = mix64(h)
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}
