//go:build pooldebug

package core

import (
	"errors"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// The pooldebug leak tests snapshot the live-borrow counters around every
// retrieval entry point — success and injected-failure paths alike — and
// require the delta be zero: no row scratch, scan scratch or block cursor
// set may outlive the call that borrowed it. They complement the static
// poolcheck analyzer: poolcheck proves the release calls exist on every
// path, these tests prove the calls actually run.

type poolCounters struct{ rows, scan, cursors int }

func snapshotPools() poolCounters {
	return poolCounters{rows: moa.LiveRows(), scan: bat.LiveScanScratch(), cursors: bat.LiveBlockCursors()}
}

func assertNoLeak(t *testing.T, label string, before poolCounters) {
	t.Helper()
	after := snapshotPools()
	if after != before {
		t.Errorf("%s leaked pooled scratch: rows %+d, scan %+d, cursors %+d",
			label, after.rows-before.rows, after.scan-before.scan, after.cursors-before.cursors)
	}
}

// leakStub builds a small indexed store with the deterministic stub
// pipeline (see refresh_test.go).
func leakStub(t *testing.T) *Mirror {
	t.Helper()
	urls, anns := refreshCorpus(24, 11)
	return oneShotStub(t, urls, anns)
}

// TestQueryPathsDoNotLeak drives every single-store retrieval surface,
// ranked cut and full ranking both, and requires the borrow counters to
// return to their baseline.
func TestQueryPathsDoNotLeak(t *testing.T) {
	m := leakStub(t)
	for _, k := range []int{5, 0} {
		before := snapshotPools()
		if _, err := m.QueryAnnotations("harbor gull", k); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "QueryAnnotations", before)

		before = snapshotPools()
		clusters := m.ExpandQuery("harbor gull", 5)
		if len(clusters) > 0 {
			if _, err := m.QueryContent(clusters, k); err != nil {
				t.Fatal(err)
			}
		}
		assertNoLeak(t, "QueryContent", before)

		before = snapshotPools()
		if _, err := rank(m, Query{Stmt: StmtDual, Text: "harbor gull", K: k}); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "QueryDualCoding", before)
	}

	// A raw Moa ranking the plan cannot prune is cut through the pooled
	// row heap.
	for _, k := range []int{3, 0} {
		before := snapshotPools()
		if _, err := adhoc(m, `map[sum(getBL(THIS.annotation, query, stats)) * 2](ImageLibraryInternal);`, []string{"harbor"}, k); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "QueryTopK", before)
	}
}

// TestSessionRunDoesNotLeak covers the feedback loop: a round on a fresh
// session, then again after a feedback round reweights the content query.
func TestSessionRunDoesNotLeak(t *testing.T) {
	m := leakStub(t)
	sess, err := m.NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	// Force a non-empty content query even if the stub thesaurus
	// associates nothing, so the round scans the weighted content source.
	sess = withWeight(t, sess, "c000", 1)

	var hits []Hit
	for _, k := range []int{8, 0} {
		before := snapshotPools()
		if hits, err = rank(m, sess.Query(k)); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "SessionRun", before)
	}

	if len(hits) > 0 {
		if sess, err = m.SessionFeedback(sess, []bat.OID{hits[0].OID}, nil); err != nil {
			t.Fatal(err)
		}
		before := snapshotPools()
		if _, err := rank(m, sess.Query(8)); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "SessionRun after feedback", before)
	}
}

// TestSessionRunErrorPathDoesNotLeak: a session round whose dual leg
// fails surfaces the error and holds no pooled scratch afterwards.
func TestSessionRunErrorPathDoesNotLeak(t *testing.T) {
	m := leakStub(t)
	spy := &legSpy{storeView: storeView{m.currentEpoch()}, fail: StmtDual}
	g := NewGather(spyShards{storeShards{m}, spy})
	sess, err := g.NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	sess = withWeight(t, sess, "c000", 1) // guarantee the failing arm runs

	before := snapshotPools()
	if _, err := rank(g, sess.Query(8)); !errors.Is(err, errInjected) {
		t.Fatalf("Run error = %v, want injected failure", err)
	}
	assertNoLeak(t, "SessionRun error path", before)
}

// TestDualCodingScanErrorDoesNotLeak drives the dual-coding plan into a
// scan failure — the image CONTREP's block payload corrupted under the
// serving epoch — and requires the error to surface with every scan
// scratch and cursor set released on the way out.
func TestDualCodingScanErrorDoesNotLeak(t *testing.T) {
	m := leakStub(t)
	const text = "harbor gull"
	if len(m.ExpandQuery(text, dualConcepts)) == 0 {
		t.Fatal("stub thesaurus expands the probe to nothing; the content source would not scan")
	}
	blk, ok := m.currentEpoch().DB.BAT(InternalSet + "_image_blkdoc")
	if !ok {
		t.Fatal("no image block postings")
	}
	data := blk.Tail.Bytes()
	for i := range data {
		data[i] = 0xff
	}
	before := snapshotPools()
	if _, err := rank(m, Query{Stmt: StmtDual, Text: text, K: 5}); err == nil {
		t.Fatal("dual coding over a corrupt content segment returned no error")
	}
	assertNoLeak(t, "dual-coding scan error path", before)
}

// TestShardedQueryPathsDoNotLeak repeats the coverage over the
// scatter-gather engine for N ∈ {1, 2, 8} shards, including the sharded
// session.
func TestShardedQueryPathsDoNotLeak(t *testing.T) {
	urls, anns := refreshCorpus(24, 11)
	for _, shards := range []int{1, 2, 8} {
		e, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := range urls {
			if err := e.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}

		before := snapshotPools()
		if _, err := e.QueryAnnotations("harbor gull", 5); err != nil {
			t.Fatal(err)
		}
		if _, err := rank(e, Query{Stmt: StmtDual, Text: "harbor gull", K: 5}); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "sharded queries", before)

		sess, err := e.NewSession("harbor gull")
		if err != nil {
			t.Fatal(err)
		}
		sess = withWeight(t, sess, "c000", 1)
		before = snapshotPools()
		if _, err := rank(e, sess.Query(8)); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "sharded SessionRun", before)
	}
}

// TestCachedPathDoesNotBorrow: a cache hit serves the stored hits without
// touching any pool.
func TestCachedPathDoesNotBorrow(t *testing.T) {
	m := leakStub(t)
	m.SetResultCache(1 << 20)
	if _, err := rank(m, Query{Stmt: StmtDual, Text: "harbor gull", K: 5}); err != nil {
		t.Fatal(err) // cold: populates the cache
	}
	before := snapshotPools()
	if _, err := rank(m, Query{Stmt: StmtDual, Text: "harbor gull", K: 5}); err != nil {
		t.Fatal(err)
	}
	assertNoLeak(t, "cached QueryDualCoding", before)
	if st := m.ResultCacheStats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit, stats = %+v", st)
	}
}
