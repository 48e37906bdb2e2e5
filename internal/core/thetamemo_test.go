package core

import (
	"errors"
	"fmt"
	"testing"

	"mirror/internal/bat"
)

var errInjected = errors.New("injected failure")

// legSpy is a one-leg view over a real epoch that records the threshold
// every leg receives and fails the legs of one statement (fail, when
// set) with errInjected.
type legSpy struct {
	storeView
	fail   Stmt
	thetas []*bat.TopKThreshold
}

func (v *legSpy) Leg(s int, q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error) {
	v.thetas = append(v.thetas, theta)
	if v.fail != StmtSource && q.Stmt == v.fail {
		return nil, errInjected
	}
	return v.storeView.Leg(s, q, theta)
}

// spyShards serves a store's session state over a legSpy view.
type spyShards struct {
	storeShards
	v *legSpy
}

func (s spyShards) View() ShardView { return s.v }

// TestThetaMemoDifferentialSingle: with the threshold memo enabled (the
// default), every ranking must be hit-for-hit identical to a memo-less
// twin store — on the seeding pass, on the seeded repeat pass, and (the
// cross-epoch guarantee) after AddImage+Refresh publishes a new epoch,
// where a stale seed applied to the new collection could wrongly prune
// documents that now belong in the top k.
func TestThetaMemoDifferentialSingle(t *testing.T) {
	urls, anns := refreshCorpus(40, 3)
	cold := oneShotStub(t, urls[:25], anns[:25])
	cold.SetThetaMemo(0)
	warm := oneShotStub(t, urls[:25], anns[:25])

	assertSameRetrieval(t, "single seeding", cold, warm, 10)
	assertSameRetrieval(t, "single seeded", cold, warm, 10)
	if st := warm.ThetaMemoStats(); st.Hits == 0 {
		t.Fatalf("repeat pass never used a seed, stats = %+v", st)
	}

	for i := 25; i < 40; i++ {
		if err := cold.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
		if err := warm.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	refreshStub(t, cold)
	refreshStub(t, warm)

	// The refresh published a new epoch mid-stream: the previous
	// generation's seeds must be unreachable, so the memoised store
	// re-derives everything against the new snapshot.
	assertSameRetrieval(t, "single post-publish seeding", cold, warm, 10)
	assertSameRetrieval(t, "single post-publish seeded", cold, warm, 10)
}

// TestThetaMemoDifferentialSharded repeats the guarantee over the
// scatter-gather engine for N ∈ {1, 2, 8} shards, where the seed
// pre-raises the threshold shared by every shard's scan.
func TestThetaMemoDifferentialSharded(t *testing.T) {
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
		cold, warm := build(), build()
		cold.SetThetaMemo(0)

		label := fmt.Sprintf("%d shards", shards)
		assertSameRetrieval(t, label+" seeding", cold, warm, 10)
		assertSameRetrieval(t, label+" seeded", cold, warm, 10)
		if st := warm.ThetaMemoStats(); st.Hits == 0 {
			t.Fatalf("%s: repeat pass never used a seed, stats = %+v", label, st)
		}

		for i := 25; i < 40; i++ {
			if err := cold.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
			if err := warm.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		engineRefreshStub(t, cold)
		engineRefreshStub(t, warm)

		assertSameRetrieval(t, label+" post-publish seeding", cold, warm, 10)
		assertSameRetrieval(t, label+" post-publish seeded", cold, warm, 10)
	}
}

// TestThetaMemoUnit exercises the ThetaMemo directly: keying, the entry
// bound, generation sweep, counters, and the disabled (nil) memo.
func TestThetaMemoUnit(t *testing.T) {
	t.Run("nil memo is inert", func(t *testing.T) {
		var tm *ThetaMemo
		tm.put(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}, 0.7)
		if _, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}); ok {
			t.Fatal("nil memo returned a seed")
		}
		tm.sweep(2)
		if st := tm.stats(); st != (CacheStats{}) {
			t.Fatalf("nil memo stats = %+v", st)
		}
		if newThetaMemo(0) != nil || newThetaMemo(-1) != nil {
			t.Fatal("non-positive bound must disable the memo")
		}
	})

	t.Run("one leg allocates a threshold only for a seed", func(t *testing.T) {
		urls, anns := refreshCorpus(40, 3)
		m := oneShotStub(t, urls, anns)
		spy := &legSpy{storeView: storeView{m.currentEpoch()}}
		g := NewGather(spyShards{storeShards{m}, spy})
		for pass := 0; pass < 2; pass++ {
			hits, err := g.QueryAnnotations("harbor gull", 3)
			if err != nil || len(hits) != 3 {
				t.Fatalf("pass %d: %d hits, %v", pass, len(hits), err)
			}
		}
		if len(spy.thetas) != 2 || spy.thetas[0] != nil || spy.thetas[1] == nil {
			t.Fatalf("leg thresholds %v: want none on the memo miss, a seeded one on the repeat", spy.thetas)
		}
	})

	t.Run("key dimensions", func(t *testing.T) {
		tm := newThetaMemo(1 << 10)
		tm.put(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}, 0.7)
		if s, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}); !ok || s != 0.7 {
			t.Fatalf("exact-key get = (%v,%v)", s, ok)
		}
		for _, miss := range []func() (float64, bool){
			func() (float64, bool) { return tm.get(2, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}) }, // other epoch
			func() (float64, bool) { return tm.get(1, &Query{Stmt: StmtContent, K: 10, Text: "q"}) },    // other surface
			func() (float64, bool) { return tm.get(1, &Query{Stmt: StmtAnnotation, K: 5, Text: "q"}) },  // other k
			func() (float64, bool) { return tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "r"}) }, // other text
		} {
			if _, ok := miss(); ok {
				t.Fatal("get hit on a differing key dimension — a cross-epoch or cross-query seed would break exactness")
			}
		}
		tm.put(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c1", "c2"}}, 0.5)
		if _, ok := tm.get(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c1", "c2"}}); !ok {
			t.Fatal("terms get missed")
		}
		if _, ok := tm.get(1, &Query{Stmt: StmtContent, K: 10, Text: "", Terms: []string{"c2", "c1"}}); ok {
			t.Fatal("terms get ignored order")
		}
	})

	t.Run("entry bound evicts LRU", func(t *testing.T) {
		const bound = 64
		tm := newThetaMemo(bound)
		for i := 0; i < 4096; i++ {
			tm.put(1, &Query{Stmt: StmtAnnotation, K: 10, Text: fmt.Sprintf("query-%04d", i)}, 0.5)
		}
		if st := tm.stats(); st.Items > bound {
			t.Fatalf("memo holds %d entries, bound %d", st.Items, bound)
		}
		if _, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "query-4095"}); !ok {
			t.Fatal("most recently inserted seed was evicted")
		}
	})

	t.Run("sweep drops stale generations", func(t *testing.T) {
		tm := newThetaMemo(1 << 10)
		tm.put(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "old"}, 0.7)
		tm.put(2, &Query{Stmt: StmtAnnotation, K: 10, Text: "new"}, 0.8)
		tm.sweep(2)
		if _, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "old"}); ok {
			t.Fatal("swept generation still served")
		}
		if _, ok := tm.get(2, &Query{Stmt: StmtAnnotation, K: 10, Text: "new"}); !ok {
			t.Fatal("current generation swept by mistake")
		}
	})

	t.Run("collision guard", func(t *testing.T) {
		e := &thetaEntry{text: "q", terms: []string{"a"}}
		if !e.matches(&Query{Text: "q", Terms: []string{"a"}}) {
			t.Fatal("exact surface rejected")
		}
		if e.matches(&Query{Text: "q", Terms: []string{"b"}}) || e.matches(&Query{Text: "p", Terms: []string{"a"}}) || e.matches(&Query{Text: "q"}) {
			t.Fatal("differing surface accepted — a collision could seed with another query's score")
		}
	})

	t.Run("short rankings never seed", func(t *testing.T) {
		tm := newThetaMemo(1 << 10)
		memoTheta(tm, 1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}, []Hit{{OID: 1, Score: 0.9}})
		if _, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 10, Text: "q"}); ok {
			t.Fatal("a ranking shorter than k has no exact k-th score; seeding from it is unsafe")
		}
		memoTheta(tm, 1, &Query{Stmt: StmtAnnotation, K: 1, Text: "q"}, []Hit{{OID: 1, Score: 0.9}})
		if s, ok := tm.get(1, &Query{Stmt: StmtAnnotation, K: 1, Text: "q"}); !ok || s != 0.9 {
			t.Fatalf("full ranking seed = (%v,%v), want (0.9,true)", s, ok)
		}
	})
}
