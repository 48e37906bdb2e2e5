package core_test

import (
	"math"
	"slices"
	"testing"

	"mirror/internal/core"
	"mirror/internal/corpus"
)

// cachingEngine is an engine whose result cache and θ-memo a test can
// switch and read.
type cachingEngine interface {
	NewSession(text string) (core.Session, error)
	Run(q core.Query) ([]core.Hit, core.EpochStamp, error)
	SetResultCache(maxBytes int64)
	ResultCacheStats() core.CacheStats
	SetThetaMemo(maxEntries int)
	ThetaMemoStats() core.ThetaMemoStats
}

// TestSessionRoundBypassesCacheAndMemo: the result cache and the θ-memo
// key on (generation, statement, k, text, terms), without weights, so a
// session round — the dual statement with weighted concepts — must
// neither read nor fill them, on a single store, an in-process sharded
// engine and a router. A plain dual query of the same text and concepts
// fills both first: a round served from its entry would rank with its
// unweighted scores.
func TestSessionRoundBypassesCacheAndMemo(t *testing.T) {
	fx := newRouterFixture(t, 24, 2)
	sharded, err := core.NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range fx.items {
		if err := sharded.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 6
	if err := sharded.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	const k = 5
	text := corpus.CanonicalTerm(0)
	for _, tc := range []struct {
		name string
		r    cachingEngine
	}{{"single store", fx.single}, {"sharded", sharded}, {"router", fx.router}} {
		run := func(q core.Query) []core.Hit {
			t.Helper()
			hits, _, err := tc.r.Run(q)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return hits
		}
		sess, err := tc.r.NewSession(text)
		if err != nil {
			t.Fatal(err)
		}
		nudged := core.Session{Text: sess.Text, Concepts: sess.Concepts, Weights: slices.Clone(sess.Weights)}
		nudged.Weights[0] = math.Nextafter(nudged.Weights[0], math.Inf(1))
		plain := core.Query{Stmt: core.StmtDual, Text: sess.Text, Terms: sess.Concepts, K: k}

		tc.r.SetResultCache(0)
		tc.r.SetThetaMemo(0)
		want, wantNudged := run(sess.Query(k)), run(nudged.Query(k))

		tc.r.SetResultCache(1 << 20)
		tc.r.SetThetaMemo(1 << 10)
		if got := run(plain); sameHits(want, got) {
			t.Fatalf("%s: the plain dual query ranks like the session round (%v): the probe cannot tell them apart", tc.name, got)
		}
		cache, memo := tc.r.ResultCacheStats(), tc.r.ThetaMemoStats()
		if cache.Items != 1 || memo.Items != 1 {
			t.Fatalf("%s: the plain dual query left %+v / %+v, want one entry each", tc.name, cache, memo)
		}
		for i, round := range []struct {
			s    core.Session
			want []core.Hit
		}{{sess, want}, {sess, want}, {nudged, wantNudged}} {
			if got := run(round.s.Query(k)); !sameHits(round.want, got) {
				t.Fatalf("%s: round %d ranks %v, uncached %v", tc.name, i, got, round.want)
			}
			if c, m := tc.r.ResultCacheStats(), tc.r.ThetaMemoStats(); c != cache || m != memo {
				t.Fatalf("%s: round %d touched the caches: %+v -> %+v, %+v -> %+v", tc.name, i, cache, c, memo, m)
			}
		}
	}
}
