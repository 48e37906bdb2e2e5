//go:build pooldebug

package core

import (
	"errors"
	"strings"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/moa"
)

// The pooldebug leak tests snapshot the live-borrow counters around every
// retrieval entry point — success and injected-failure paths alike — and
// require the delta be zero: no pooled Scores map, ranking slice, row
// scratch, scan scratch or block cursor set may outlive the call that
// borrowed it. They complement the
// static poolcheck analyzer: poolcheck proves the release calls exist on
// every path, these tests prove the calls actually run.

type poolCounters struct{ scores, ranked, rows, scan, cursors int }

func snapshotPools() poolCounters {
	return poolCounters{
		scores: ir.LiveScores(), ranked: LiveRanked(), rows: moa.LiveRows(),
		scan: bat.LiveScanScratch(), cursors: bat.LiveBlockCursors(),
	}
}

func assertNoLeak(t *testing.T, label string, before poolCounters) {
	t.Helper()
	after := snapshotPools()
	if after != before {
		t.Errorf("%s leaked pooled scratch: scores %+d, ranked %+d, rows %+d, scan %+d, cursors %+d",
			label, after.scores-before.scores, after.ranked-before.ranked, after.rows-before.rows,
			after.scan-before.scan, after.cursors-before.cursors)
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
		if _, err := m.QueryDualCoding("harbor gull", k); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "QueryDualCoding", before)
	}

	// WeightedContentScores transfers ownership to the caller: the borrow
	// is live until the caller releases it.
	clusters := m.ExpandQuery("harbor tide", 5)
	if len(clusters) > 0 {
		ws := make([]float64, len(clusters))
		for i := range ws {
			ws[i] = 1
		}
		before := snapshotPools()
		scores, err := m.WeightedContentScores(clusters, ws)
		if err != nil {
			t.Fatal(err)
		}
		if got := ir.LiveScores() - before.scores; got != 1 {
			t.Errorf("WeightedContentScores should hand the caller one live borrow, got %+d", got)
		}
		ir.ReleaseScores(scores)
		assertNoLeak(t, "WeightedContentScores+release", before)
	}
}

// TestSessionRunDoesNotLeak covers the feedback loop: Run on a fresh
// session, then again after a feedback round reweights the content query.
func TestSessionRunDoesNotLeak(t *testing.T) {
	m := leakStub(t)
	sess, err := m.NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	// Force a non-empty content query even if the stub thesaurus
	// associates nothing, so Run exercises the WeightedContentScores arm.
	sess.weights["c000"] = 1

	before := snapshotPools()
	hits, err := sess.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	assertNoLeak(t, "Session.Run", before)

	if len(hits) > 0 {
		if err := sess.Feedback([]bat.OID{hits[0].OID}, nil); err != nil {
			t.Fatal(err)
		}
		before = snapshotPools()
		if _, err := sess.Run(8); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "Session.Run after feedback", before)
	}
}

// TestSessionRunErrorPathDoesNotLeak pins the first pre-PR bug: when
// WeightedContentScores fails mid-Run, the already-borrowed text score
// map must still be released.
func TestSessionRunErrorPathDoesNotLeak(t *testing.T) {
	m := leakStub(t)
	spy := &legSpy{storeView: storeView{m.currentEpoch()}, fail: "wsum"}
	sess, err := NewGather(spyShards{storeShards{m}, spy}).NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	sess.weights["c000"] = 1 // guarantee the failing arm runs

	before := snapshotPools()
	if _, err := sess.Run(8); !errors.Is(err, errInjected) {
		t.Fatalf("Run error = %v, want injected failure", err)
	}
	assertNoLeak(t, "Session.Run error path", before)
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
	if _, err := m.QueryDualCoding(text, 5); err == nil {
		t.Fatal("dual coding over a corrupt content segment returned no error")
	}
	assertNoLeak(t, "dual-coding scan error path", before)
}

// TestShardedQueryPathsDoNotLeak repeats the coverage over the
// scatter-gather engine for N ∈ {1, 2, 8} shards, including the fan-out
// WeightedContentScores merge and the sharded session.
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
		if _, err := e.QueryDualCoding("harbor gull", 5); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "sharded queries", before)

		clusters := e.ExpandQuery("harbor tide", 5)
		if len(clusters) > 0 {
			ws := make([]float64, len(clusters))
			for i := range ws {
				ws[i] = 1
			}
			before = snapshotPools()
			scores, err := e.WeightedContentScores(clusters, ws)
			if err != nil {
				t.Fatal(err)
			}
			ir.ReleaseScores(scores)
			assertNoLeak(t, "sharded WeightedContentScores+release", before)
		}

		sess, err := e.NewSession("harbor gull")
		if err != nil {
			t.Fatal(err)
		}
		sess.weights["c000"] = 1
		before = snapshotPools()
		if _, err := sess.Run(8); err != nil {
			t.Fatal(err)
		}
		assertNoLeak(t, "sharded Session.Run", before)
	}
}

// TestCachedPathDoesNotBorrow: a cache hit serves the stored hits without
// touching any pool.
func TestCachedPathDoesNotBorrow(t *testing.T) {
	m := leakStub(t)
	m.SetResultCache(1 << 20)
	if _, err := m.QueryDualCoding("harbor gull", 5); err != nil {
		t.Fatal(err) // cold: populates the cache
	}
	before := snapshotPools()
	if _, err := m.QueryDualCoding("harbor gull", 5); err != nil {
		t.Fatal(err)
	}
	assertNoLeak(t, "cached QueryDualCoding", before)
	if st := m.ResultCacheStats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit, stats = %+v", st)
	}
}

func mustPanic(t *testing.T, wantSubstr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one containing %q", wantSubstr)
			return
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, wantSubstr) {
			t.Errorf("panic = %v, want one containing %q", r, wantSubstr)
		}
	}()
	fn()
}

// TestDoubleReleasePanics: releasing the same pooled map twice is a bug
// the debug build must catch loudly, not corrupt the pool silently.
func TestDoubleReleasePanics(t *testing.T) {
	s := ir.NewScores()
	s[1] = 0.5
	ir.ReleaseScores(s)
	mustPanic(t, "double ReleaseScores", func() { ir.ReleaseScores(s) })
}

// TestUseAfterReleasePanics: feeding a released map into a combinator is
// a use-after-free on pooled scratch; the debug build traps it at the
// operator entry point.
func TestUseAfterReleasePanics(t *testing.T) {
	s := ir.NewScores()
	s[1] = 0.5
	ir.ReleaseScores(s)
	mustPanic(t, "use of released Scores map", func() {
		_, _ = ir.CombineSum([]ir.Scores{s}, []float64{1})
	})
}
