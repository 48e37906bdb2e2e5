package core

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Epoch-keyed LRUs: the query result cache and the threshold memo.
//
// PR 5's epoch snapshots make invalidation trivial: every published
// epoch carries a monotone sequence number, and entries are keyed on it —
// an epoch swap (Refresh, recovery, rebuild) is a generation bump that
// makes every old entry unreachable, with no locking against the query
// path. The first query of a new generation additionally sweeps the
// stale ones out (Gather.view) so their memory returns promptly;
// correctness never depends on the sweep.
//
// Both are one striped LRU bounded by a per-entry cost: the result cache
// stores whole rankings and charges their estimated bytes; the threshold
// memo stores one float64 seed per query and charges 1, so it stays warm
// long after byte pressure has evicted the rankings themselves. Stripes
// are shared-nothing: a key hashes to exactly one stripe with its own
// mutex, list and budget, so concurrent queries on different keys rarely
// contend. A cached ranking is a shared immutable []Hit — callers must
// treat it as read-only (every caller in the tree renders or copies it).
//
// The memo's exactness argument: a pruned top-k scan finishes with its
// threshold at the exact k-th score of the full ranking, and any θ ≤ the
// true global k-th score only prunes documents that provably cannot enter
// the top k (ties at the k-th score survive, because a tied document's
// bound is strictly above θ by the slack). So a repeat of the same
// (epoch, statement, k, query) seeded with the terminal value returns the
// BUN-for-BUN identical ranking while skipping nearly all decode and
// scoring work.

// cacheStripeCount is the number of shared-nothing stripes (power of two).
const cacheStripeCount = 16

// cacheKey is scalar-only so lookups allocate nothing.
type cacheKey struct {
	gen  int64 // epoch sequence number the value was computed against
	stmt Stmt
	k    int
	hash uint64 // fnv64a over the query surface (text and terms)
}

// lruEntry pins the query surface verbatim so a hash collision can never
// serve (or seed with) another query's value: values are returned only
// when text and terms match the stored key exactly.
type lruEntry[V any] struct {
	key   cacheKey
	text  string
	terms []string
	val   V
	cost  int64
}

type lruStripe[V any] struct {
	mu   sync.Mutex
	lru  *list.List // front = most recently used; values are *lruEntry[V]
	idx  map[cacheKey]*list.Element
	used int64
	max  int64
}

// epochLRU is the striped epoch-keyed LRU; a nil *epochLRU is disabled,
// and every method is nil-receiver safe.
type epochLRU[V any] struct {
	stripes [cacheStripeCount]lruStripe[V]
	cost    func(*lruEntry[V]) int64
	hits    atomic.Int64
	misses  atomic.Int64
}

// resultCache stores rankings, bounded by their estimated bytes.
type resultCache = epochLRU[[]Hit]

// ThetaMemo memoises terminal pruning thresholds, bounded by entry count.
type ThetaMemo = epochLRU[float64]

type (
	cacheEntry = lruEntry[[]Hit]
	thetaEntry = lruEntry[float64]
)

// newEpochLRU builds an LRU whose entries' costs sum to roughly budget
// across all stripes; budget <= 0 returns nil (disabled).
func newEpochLRU[V any](budget int64, cost func(*lruEntry[V]) int64) *epochLRU[V] {
	if budget <= 0 {
		return nil
	}
	c := &epochLRU[V]{cost: cost}
	per := budget / cacheStripeCount
	if per < 1 {
		per = 1
	}
	for i := range c.stripes {
		c.stripes[i].lru = list.New()
		c.stripes[i].idx = make(map[cacheKey]*list.Element)
		c.stripes[i].max = per
	}
	return c
}

// newResultCache builds a cache bounded to roughly maxBytes.
func newResultCache(maxBytes int64) *resultCache {
	return newEpochLRU(maxBytes, cacheEntrySize)
}

// newThetaMemo builds a memo bounded to roughly maxEntries seeds.
func newThetaMemo(maxEntries int) *ThetaMemo {
	return newEpochLRU(int64(maxEntries), func(*thetaEntry) int64 { return 1 })
}

// cacheHash is fnv64a over the query surface; inlined byte-at-a-time so a
// lookup performs zero allocations.
func cacheHash(q *Query) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(q.Text); i++ {
		h = (h ^ uint64(q.Text[i])) * prime64
	}
	for _, t := range q.Terms {
		h = (h ^ 0xff) * prime64 // term separator
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * prime64
		}
	}
	return h
}

// matches reports whether the entry was stored for exactly this query
// surface (collision guard).
func (e *lruEntry[V]) matches(q *Query) bool {
	if e.text != q.Text || len(e.terms) != len(q.Terms) {
		return false
	}
	for i := range q.Terms {
		if e.terms[i] != q.Terms[i] {
			return false
		}
	}
	return true
}

// get returns the value stored for q at generation gen and whether it was
// present. k <= 0 requests (full rankings) are never stored.
func (c *epochLRU[V]) get(gen int64, q *Query) (V, bool) {
	var zero V
	if c == nil || q.K <= 0 {
		return zero, false
	}
	key := cacheKey{gen: gen, stmt: q.Stmt, k: q.K, hash: cacheHash(q)}
	st := &c.stripes[key.hash&(cacheStripeCount-1)]
	st.mu.Lock()
	if el, ok := st.idx[key]; ok {
		if e := el.Value.(*lruEntry[V]); e.matches(q) {
			st.lru.MoveToFront(el)
			v := e.val
			st.mu.Unlock()
			c.hits.Add(1)
			return v, true
		}
	}
	st.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// put stores a value; the query surface is copied (callers may reuse
// their terms slice). Entries costing more than a whole stripe are not
// stored.
func (c *epochLRU[V]) put(gen int64, q *Query, v V) {
	if c == nil || q.K <= 0 {
		return
	}
	key := cacheKey{gen: gen, stmt: q.Stmt, k: q.K, hash: cacheHash(q)}
	e := &lruEntry[V]{key: key, text: q.Text, val: v}
	if len(q.Terms) > 0 {
		e.terms = append(make([]string, 0, len(q.Terms)), q.Terms...)
	}
	e.cost = c.cost(e)
	st := &c.stripes[key.hash&(cacheStripeCount-1)]
	if e.cost > st.max {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.idx[key]; ok {
		// Lost a race with another miss on the same key: keep the
		// incumbent (both were computed against the same epoch).
		st.lru.MoveToFront(el)
		return
	}
	st.idx[key] = st.lru.PushFront(e)
	st.used += e.cost
	for st.used > st.max {
		st.removeLocked(st.lru.Back())
	}
}

// removeLocked removes one entry; the stripe mutex is held.
func (st *lruStripe[V]) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry[V])
	st.lru.Remove(el)
	delete(st.idx, e.key)
	st.used -= e.cost
}

// sweep drops every entry computed against a generation older than gen.
func (c *epochLRU[V]) sweep(gen int64) {
	if c == nil {
		return
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		var next *list.Element
		for el := st.lru.Front(); el != nil; el = next {
			next = el.Next()
			if el.Value.(*lruEntry[V]).key.gen < gen {
				st.removeLocked(el)
			}
		}
		st.mu.Unlock()
	}
}

// stats snapshots the counters; Bytes is the summed entry cost.
func (c *epochLRU[V]) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		s.Bytes += st.used
		s.Items += st.lru.Len()
		st.mu.Unlock()
	}
	return s
}

// cacheEntrySize estimates a cached ranking's resident bytes (slice
// headers, strings, map/list bookkeeping) for the LRU budget.
func cacheEntrySize(e *cacheEntry) int64 {
	n := int64(128) // entry struct + list element + index slot overhead
	n += int64(len(e.text))
	for _, t := range e.terms {
		n += int64(len(t)) + 16
	}
	for _, h := range e.val {
		n += int64(len(h.URL)) + 32
	}
	return n
}

// CacheStats reports result-cache effectiveness counters.
type CacheStats struct {
	Hits   int64
	Misses int64
	Bytes  int64
	Items  int
}

// ThetaMemoStats reports threshold-memo effectiveness counters.
type ThetaMemoStats struct {
	Hits   int64
	Misses int64
	Items  int
}

// memoStats snapshots a threshold memo's counters (zero when disabled).
func memoStats(tm *ThetaMemo) ThetaMemoStats {
	s := tm.stats()
	return ThetaMemoStats{Hits: s.Hits, Misses: s.Misses, Items: s.Items}
}

// DefaultThetaMemoEntries is the constructor default memo bound: seeds
// are ~100 bytes each, so the default memo tops out near a megabyte while
// covering far more distinct queries than the byte-bounded result cache
// retains rankings for.
const DefaultThetaMemoEntries = 8192

// memoTheta records a completed ranking's terminal threshold. Only a
// full ranking (len(hits) == k) carries an exact k-th score; short
// rankings mean fewer than k scoreable documents, where no finite seed
// is safe to pre-raise.
func memoTheta(tm *ThetaMemo, gen int64, q *Query, hits []Hit) {
	if q.K <= 0 || len(hits) != q.K {
		return
	}
	tm.put(gen, q, hits[q.K-1].Score)
}
