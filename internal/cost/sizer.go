package cost

import (
	"math"
	"sync"

	"qsub/internal/metrics"
)

// Func is a Sizer built from two functions. It is the glue between the
// abstract merging algorithms and concrete instantiations: geographic
// queries, the set-cover gadget of §5.2, or synthetic benchmark workloads.
type Func struct {
	SizeFn   func(i int) float64
	MergedFn func(set []int) float64
}

// Size returns SizeFn(i).
func (f Func) Size(i int) float64 { return f.SizeFn(i) }

// MergedSize returns MergedFn(set), or SizeFn(set[0]) for singletons when
// MergedFn is nil.
func (f Func) MergedSize(set []int) float64 {
	if f.MergedFn == nil && len(set) == 1 {
		return f.SizeFn(set[0])
	}
	return f.MergedFn(set)
}

// memoShards is the number of independently locked cache segments. A
// small power of two keeps the shard pick a mask while spreading the
// solver worker pool (GOMAXPROCS-sized) across enough locks that
// contention is negligible.
const memoShards = 16

// Memo caches MergedSize results per query subset behind sharded
// mutex-guarded maps, so one cache can serve every restart/component of a
// parallel solver run concurrently. Subsets are keyed by their QSet
// bitset words: instances with at most 64 queries use the word itself,
// larger instances use the full multi-word key. The exhaustive Partition
// algorithm revisits the same subsets many times while growing its search
// tree, and DirectedSearch restarts re-probe the same unions, so
// memoization changes their constant factors substantially (see the
// ablation benchmarks).
//
// The wrapped Sizer must be pure (same subset ⇒ same size) for the
// lifetime of the Memo; create a fresh Memo per planning cycle when the
// underlying estimator can drift.
type Memo struct {
	inner  Sizer
	n      int
	words  int       // QSet words for n queries
	sizes  []float64 // singleton sizes, cached eagerly
	shards [memoShards]memoShard

	// pool recycles the multi-word path's per-call scratch (bitset +
	// key bytes) so cache hits on large instances allocate nothing.
	pool sync.Pool

	// Optional nil-safe instrumentation (see SetMetrics): cache
	// effectiveness.
	hits   *metrics.Counter
	misses *metrics.Counter
}

// largeScratch is the pooled working state of mergedSizeLarge: the
// subset bitset and its byte-encoded key.
type largeScratch struct {
	qs  QSet
	buf []byte
}

// memoShard is one lock-striped segment of the cache. small is used when
// the whole instance fits one bitset word; large handles arbitrary n with
// the stringified multi-word key.
type memoShard struct {
	mu    sync.RWMutex
	small map[uint64]float64
	large map[string]float64
}

// NewMemo wraps the Sizer with a concurrency-safe subset cache for an
// instance of n queries. Instances of any size are supported: n ≤ 64 uses
// the single-word fast path, larger instances fall back to multi-word
// bitset keys transparently.
func NewMemo(inner Sizer, n int) *Memo {
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = math.NaN()
	}
	return NewMemoSizes(inner, sizes)
}

// NewMemoSizes is NewMemo for a caller that has already probed singleton
// sizes of the same moment of the estimator: sizes[i] is inner.Size(i), or
// NaN where the caller has not probed it. The memo takes the slice over and
// probes only the NaN entries.
func NewMemoSizes(inner Sizer, sizes []float64) *Memo {
	for i, s := range sizes {
		if math.IsNaN(s) {
			sizes[i] = inner.Size(i)
		}
	}
	n := len(sizes)
	m := &Memo{
		inner: inner,
		n:     n,
		words: QSetWords(n),
		sizes: sizes,
	}
	for s := range m.shards {
		if m.words == 1 {
			m.shards[s].small = make(map[uint64]float64)
		} else {
			m.shards[s].large = make(map[string]float64)
		}
	}
	return m
}

// SetMetrics attaches hit/miss counters to the memo. Either may be nil
// (that aspect stays uncounted). Call before handing the memo to
// concurrent solvers; the handles themselves are lock-free and
// allocation-free.
func (m *Memo) SetMetrics(hits, misses *metrics.Counter) {
	m.hits = hits
	m.misses = misses
}

// Size returns the cached singleton size.
func (m *Memo) Size(i int) float64 { return m.sizes[i] }

// Inner returns the wrapped Sizer.
func (m *Memo) Inner() Sizer { return m.inner }

// MergedSize returns the cached merged size for the set, computing and
// storing it on first use. It is safe for concurrent use; two goroutines
// racing on the same uncached subset may both compute it, which is
// harmless because the inner Sizer is pure. The set slice is not
// retained, so callers may pass a reused scratch buffer.
func (m *Memo) MergedSize(set []int) float64 {
	if len(set) == 1 {
		return m.sizes[set[0]]
	}
	if m.words == 1 {
		var key uint64
		for _, q := range set {
			key |= 1 << uint(q)
		}
		sh := &m.shards[mix64(key)&(memoShards-1)]
		sh.mu.RLock()
		v, ok := sh.small[key]
		sh.mu.RUnlock()
		if ok {
			m.hits.Inc()
			return v
		}
		m.misses.Inc()
		v = m.inner.MergedSize(set)
		sh.mu.Lock()
		sh.small[key] = v
		sh.mu.Unlock()
		return v
	}
	return m.mergedSizeLarge(set)
}

// mergedSizeLarge is the multi-word (n > 64) path: the subset's bitset
// words become a string key so the map can hash them. The bitset and
// key bytes come from a pool and the lookup uses the compiler's
// non-allocating map[string(bytes)] form, so a cache hit — the common
// case in the solver hot loops — allocates nothing; the key string is
// materialized only when a miss must be stored.
func (m *Memo) mergedSizeLarge(set []int) float64 {
	sc, _ := m.pool.Get().(*largeScratch)
	if sc == nil {
		sc = &largeScratch{qs: make(QSet, m.words), buf: make([]byte, 8*m.words)}
	} else {
		sc.qs.Reset()
	}
	for _, q := range set {
		sc.qs.Add(q)
	}
	for wi, w := range sc.qs {
		for b := 0; b < 8; b++ {
			sc.buf[8*wi+b] = byte(w >> uint(8*b))
		}
	}
	sh := &m.shards[sc.qs.Hash()&(memoShards-1)]
	sh.mu.RLock()
	v, ok := sh.large[string(sc.buf)]
	sh.mu.RUnlock()
	if ok {
		m.hits.Inc()
		m.pool.Put(sc)
		return v
	}
	m.misses.Inc()
	v = m.inner.MergedSize(set)
	key := string(sc.buf)
	m.pool.Put(sc)
	sh.mu.Lock()
	sh.large[key] = v
	sh.mu.Unlock()
	return v
}

var (
	_ Sizer = Func{}
	_ Sizer = (*Memo)(nil)
)
