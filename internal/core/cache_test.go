package core

import (
	"fmt"
	"testing"
)

// TestCacheDifferentialSingle: with the result cache enabled, every query
// answer must be hit-for-hit identical to an uncached twin store — before
// an epoch swap, and (the invalidation guarantee) after AddImage+Refresh
// publishes a new epoch. Each round queries twice, so the second pass is
// served from the cache.
func TestCacheDifferentialSingle(t *testing.T) {
	urls, anns := refreshCorpus(40, 3)
	plain := oneShotStub(t, urls[:25], anns[:25])
	cached := oneShotStub(t, urls[:25], anns[:25])
	cached.SetResultCache(1 << 20)

	assertSameRetrieval(t, "single cold", plain, cached, 10)
	assertSameRetrieval(t, "single warm", plain, cached, 10)
	if st := cached.ResultCacheStats(); st.Hits == 0 {
		t.Fatalf("warm pass never hit the cache, stats = %+v", st)
	}

	for i := 25; i < 40; i++ {
		if err := plain.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
		if err := cached.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	refreshStub(t, plain)
	refreshStub(t, cached)

	// The refresh published a new epoch: the old generation's entries must
	// be unreachable, so the cached store answers from the new snapshot.
	assertSameRetrieval(t, "single post-refresh cold", plain, cached, 10)
	assertSameRetrieval(t, "single post-refresh warm", plain, cached, 10)
}

// TestCacheDifferentialSharded repeats the guarantee over the
// scatter-gather engine for N ∈ {1, 2, 8} shards.
func TestCacheDifferentialSharded(t *testing.T) {
	urls, anns := refreshCorpus(40, 3)
	for _, shards := range []int{1, 2, 8} {
		build := func() *ShardedEngine {
			e, err := NewSharded(shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ {
				if err := e.AddImage(urls[i], anns[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
				t.Fatal(err)
			}
			return e
		}
		plain, cached := build(), build()
		cached.SetResultCache(1 << 20)

		label := fmt.Sprintf("%d shards", shards)
		assertSameRetrieval(t, label+" cold", plain, cached, 10)
		assertSameRetrieval(t, label+" warm", plain, cached, 10)
		if st := cached.ResultCacheStats(); st.Hits == 0 {
			t.Fatalf("%s: warm pass never hit the cache, stats = %+v", label, st)
		}

		for i := 25; i < 40; i++ {
			if err := plain.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
			if err := cached.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		engineRefreshStub(t, plain)
		engineRefreshStub(t, cached)

		assertSameRetrieval(t, label+" post-refresh cold", plain, cached, 10)
		assertSameRetrieval(t, label+" post-refresh warm", plain, cached, 10)
	}
}

// TestCacheHitAllocatesNothing pins the served-from-cache path of a ranked
// text query at zero allocations, on a single store and on the sharded
// gather: the key is scalar-only, the hash is inlined, the view pin is an
// atomic load, and the stored ranking is returned shared.
func TestCacheHitAllocatesNothing(t *testing.T) {
	urls, anns := refreshCorpus(40, 3)
	sharded, err := NewSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range urls {
		if err := sharded.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    interface {
			SetResultCache(int64)
			ResultCacheStats() CacheStats
			QueryAnnotationsStamped(string, int) ([]Hit, EpochStamp, error)
		}
	}{
		{"single", oneShotStub(t, urls, anns)},
		{"sharded", sharded},
	} {
		const text, k = "harbor gull", 10
		tc.r.SetResultCache(1 << 20)
		if _, _, err := tc.r.QueryAnnotationsStamped(text, k); err != nil {
			t.Fatal(err) // cold: populates the cache
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := tc.r.QueryAnnotationsStamped(text, k); err != nil {
				t.Fatal(err)
			}
		})
		if st := tc.r.ResultCacheStats(); st.Hits < 200 {
			t.Fatalf("%s: the measured calls were not cache hits: %+v", tc.name, st)
		}
		if allocs != 0 {
			t.Fatalf("%s: a result-cache hit allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// TestCacheUnit exercises the resultCache directly: keying, LRU byte
// budget, generation sweep, counters, and the disabled (nil) cache.
func TestCacheUnit(t *testing.T) {
	hits := []Hit{{OID: 1, URL: "img://a", Score: 0.9}, {OID: 2, URL: "img://b", Score: 0.5}}

	t.Run("nil cache is inert", func(t *testing.T) {
		var c *resultCache
		c.put(1, &Query{Stmt: StmtDual, K: 10, Text: "q"}, hits)
		if _, ok := c.get(1, &Query{Stmt: StmtDual, K: 10, Text: "q"}); ok {
			t.Fatal("nil cache returned a hit")
		}
		c.sweep(2)
		if st := c.stats(); st != (CacheStats{}) {
			t.Fatalf("nil cache stats = %+v", st)
		}
		if newResultCache(0) != nil || newResultCache(-1) != nil {
			t.Fatal("non-positive budget must disable the cache")
		}
	})

	t.Run("key dimensions", func(t *testing.T) {
		c := newResultCache(1 << 20)
		c.put(1, &Query{Stmt: StmtDual, K: 10, Text: "q"}, hits)
		if got, ok := c.get(1, &Query{Stmt: StmtDual, K: 10, Text: "q"}); !ok || !hitsEqual(got, hits) {
			t.Fatal("exact-key get missed")
		}
		for _, miss := range []func() ([]Hit, bool){
			func() ([]Hit, bool) { return c.get(2, &Query{Stmt: StmtDual, K: 10, Text: "q"}) },       // other epoch
			func() ([]Hit, bool) { return c.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}) }, // other surface
			func() ([]Hit, bool) { return c.get(1, &Query{Stmt: StmtDual, K: 5, Text: "q"}) },        // other k
			func() ([]Hit, bool) { return c.get(1, &Query{Stmt: StmtDual, K: 10, Text: "r"}) },       // other text
		} {
			if _, ok := miss(); ok {
				t.Fatal("get hit on a differing key dimension")
			}
		}
		// Term queries key on the term list, order-sensitively.
		c.put(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c1", "c2"}}, hits)
		if _, ok := c.get(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c1", "c2"}}); !ok {
			t.Fatal("terms get missed")
		}
		if _, ok := c.get(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c2", "c1"}}); ok {
			t.Fatal("terms get ignored order")
		}
	})

	t.Run("full rankings bypass", func(t *testing.T) {
		c := newResultCache(1 << 20)
		c.put(1, &Query{Stmt: StmtDual, K: 0, Text: "q"}, hits)
		if _, ok := c.get(1, &Query{Stmt: StmtDual, K: 0, Text: "q"}); ok {
			t.Fatal("k <= 0 must never be cached")
		}
	})

	t.Run("byte budget evicts LRU", func(t *testing.T) {
		const budget = 16 * 1024
		c := newResultCache(budget)
		for i := 0; i < 4096; i++ {
			c.put(1, &Query{Stmt: StmtDual, K: 10, Text: fmt.Sprintf("query-%04d", i)}, hits)
		}
		st := c.stats()
		if st.Bytes > budget {
			t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, budget)
		}
		if st.Items == 0 {
			t.Fatal("eviction emptied the cache entirely")
		}
		if _, ok := c.get(1, &Query{Stmt: StmtDual, K: 10, Text: "query-4095"}); !ok {
			t.Fatal("most recently inserted entry was evicted")
		}
	})

	t.Run("sweep drops stale generations", func(t *testing.T) {
		c := newResultCache(1 << 20)
		c.put(1, &Query{Stmt: StmtDual, K: 10, Text: "old"}, hits)
		c.put(2, &Query{Stmt: StmtDual, K: 10, Text: "new"}, hits)
		c.sweep(2)
		if _, ok := c.get(1, &Query{Stmt: StmtDual, K: 10, Text: "old"}); ok {
			t.Fatal("swept generation still served")
		}
		if _, ok := c.get(2, &Query{Stmt: StmtDual, K: 10, Text: "new"}); !ok {
			t.Fatal("current generation swept by mistake")
		}
		if st := c.stats(); st.Items != 1 {
			t.Fatalf("items after sweep = %d, want 1", st.Items)
		}
	})

	t.Run("collision guard", func(t *testing.T) {
		e := &cacheEntry{text: "q", terms: []string{"a"}}
		if !e.matches(&Query{Text: "q", Terms: []string{"a"}}) {
			t.Fatal("exact surface rejected")
		}
		if e.matches(&Query{Text: "q", Terms: []string{"b"}}) || e.matches(&Query{Text: "p", Terms: []string{"a"}}) || e.matches(&Query{Text: "q"}) {
			t.Fatal("differing surface accepted — a hash collision could serve wrong results")
		}
	})
}

// TestAlphaOneMatchesUnweightedSum: a session round is the dual-coding
// expression with weighted concepts, and with the text source's unit
// weight it reproduces the former combination — the full text ranking,
// the weighted content scores and #wsum {1, 1}, ranked — bit for bit.
func TestAlphaOneMatchesUnweightedSum(t *testing.T) {
	urls, anns := refreshCorpus(30, 5)
	m := oneShotStub(t, urls, anns)
	sess, err := m.NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	// Seed the content query from real indexed cluster words so the
	// content evidence is non-trivial.
	weights := sessionWeights(t, sess)
	for _, h := range queryAnn(t, m, "harbor", 6) {
		for _, w := range m.ContentTerms(h.OID) {
			weights[w] += 0.5
		}
	}
	if len(weights) == 0 {
		t.Fatal("stub corpus yielded no cluster words to weight")
	}
	sess = sessionOf(sess.Text, weights, sess.Round)
	for _, k := range []int{10, 0} {
		got, err := rank(m, sess.Query(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := refSessionRun(t, m, sess.Text, sess.Concepts, sess.Weights, k); !hitsEqual(want, got) {
			t.Fatalf("k=%d: Run diverges from the #wsum composition:\n  want %v\n  got  %v", k, want, got)
		}
	}
}

func queryAnn(t *testing.T, m *Mirror, text string, k int) []Hit {
	t.Helper()
	hits, err := m.QueryAnnotations(text, k)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}
