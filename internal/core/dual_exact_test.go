package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/ir"
)

// The dual-coding exactness suite. Dual coding is one Moa expression
// (dualQuery): its k > 0 form runs as one two-source pruned scan, its
// k <= 0 form exhaustively. The cut must be the prefix of the full
// ranking, and the full ranking must be — bit for bit, ties included —
// what the former composition returned: both evidence sources ranked in
// full, converted to score maps, combined with #sum and ranked (the
// test-only reference layer in feedback_ref_test.go).

// dualSite is a retrieval surface with thesaurus expansion.
type dualSite interface {
	retrievalSite
	ExpandQuery(text string, topK int) []string
}

// combineSumDual is the former dual-coding composition, kept as the
// reference the Moa expression must reproduce.
func combineSumDual(t *testing.T, s dualSite, text string, k int) []Hit {
	t.Helper()
	textHits, err := s.QueryAnnotations(text, 0)
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[bat.OID]string, len(textHits))
	for _, h := range textHits {
		urls[h.OID] = h.URL
	}
	concepts := s.ExpandQuery(text, dualConcepts)
	var contentHits []Hit
	if len(concepts) > 0 {
		if contentHits, err = s.QueryContent(concepts, 0); err != nil {
			t.Fatal(err)
		}
	}
	combined := refCombineWSum(
		[]refScores{refHitScores(textHits), refHitScores(contentHits)},
		[]float64{1, 1},
		[]float64{float64(len(ir.Analyze(text))) * ir.DefaultBelief, float64(len(concepts)) * ir.DefaultBelief},
	)
	return refRank(combined, k, func(d bat.OID) string { return urls[d] })
}

// dualTexts are the suite's probes: 3–6-term texts drawn from the stub
// vocabulary, texts mixing in out-of-vocabulary terms, and an all-OOV
// text, whose expansion is empty (every document then scores 0 + T + C
// with T = C = 0).
func dualTexts() []string {
	texts := []string{"harbor gull zeppelin", "kelp quux foam buoy", "zeppelin quux"}
	rng := rand.New(rand.NewSource(26))
	for len(texts) < 9 {
		words := make([]string, 3+rng.Intn(4))
		for i := range words {
			words[i] = refreshVocab[rng.Intn(len(refreshVocab))]
		}
		texts = append(texts, strings.Join(words, " "))
	}
	return texts
}

// assertDualExact runs the suite's probes on one site at k ∈ {0, 1, 10,
// 100}: the full ranking equals the #sum reference, every cut its
// prefix.
func assertDualExact(t *testing.T, label string, s dualSite) {
	t.Helper()
	empty, expanded := false, false
	for _, text := range dualTexts() {
		n := len(s.ExpandQuery(text, dualConcepts))
		empty, expanded = empty || n == 0, expanded || n > 0
		want := combineSumDual(t, s, text, 0)
		full, err := rank(s, Query{Stmt: StmtDual, Text: text})
		if err != nil {
			t.Fatalf("%s: %q: %v", label, text, err)
		}
		if !hitsEqual(want, full) {
			t.Fatalf("%s: %q: the exhaustive dual plan diverges from the #sum composition:\n  want %v\n  got  %v", label, text, want, full)
		}
		for _, k := range []int{1, 10, 100} {
			cut, err := rank(s, Query{Stmt: StmtDual, Text: text, K: k})
			if err != nil {
				t.Fatalf("%s: %q k=%d: %v", label, text, k, err)
			}
			if !hitsEqual(want[:min(k, len(want))], cut) {
				t.Fatalf("%s: %q: pruned top-%d diverges from the exhaustive ranking:\n  want %v\n  got  %v", label, text, k, want[:min(k, len(want))], cut)
			}
		}
	}
	if !empty || !expanded {
		t.Fatalf("%s: probes with and without an expansion are both needed (empty %v, expanded %v)", label, empty, expanded)
	}
}

// misalignSegments compacts one CONTREP's segments and not the other's,
// then republishes, so the dual scan's two sources disagree on their
// segment lists.
func misalignSegments(t *testing.T, m *Mirror) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, prefix := range contrepPrefixes {
		if n := ir.SegmentCount(m.DB, prefix); n >= 2 {
			if err := ir.MergeSegments(m.DB, prefix, 0, n); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if a, i := ir.SegmentCount(m.DB, contrepPrefixes[0]), ir.SegmentCount(m.DB, contrepPrefixes[1]); a == i {
		t.Fatalf("segment lists still align (%d vs %d)", a, i)
	}
	if err := m.publishEpochLocked(); err != nil {
		t.Fatal(err)
	}
}

// TestDualCodingExactSingleStore: a single store segmented by delta
// refreshes, then with its two CONTREPs' segment lists misaligned.
func TestDualCodingExactSingleStore(t *testing.T) {
	urls, anns := refreshCorpus(400, 5)
	m := buildStubIncremental(t, urls, anns, 12)
	assertDualExact(t, "single store", m)
	misalignSegments(t, m)
	assertDualExact(t, "single store, misaligned segments", m)
}

// TestDualCodingExactSharded repeats the suite on ShardedEngine for N ∈
// {1, 2, 8}, each also BUN-for-BUN equal to the single store.
func TestDualCodingExactSharded(t *testing.T) {
	urls, anns := refreshCorpus(400, 5)
	single := buildStubIncremental(t, urls, anns, 12)
	for _, shards := range []int{1, 2, 8} {
		e := buildShardedIncremental(t, shards, urls, anns, 100, int64(30+shards))
		label := fmt.Sprintf("%d shards", shards)
		assertDualExact(t, label, e)
		for _, text := range dualTexts() {
			for _, k := range []int{0, 1, 10, 100} {
				want, err := rank(single, Query{Stmt: StmtDual, Text: text, K: k})
				if err != nil {
					t.Fatal(err)
				}
				got, err := rank(e, Query{Stmt: StmtDual, Text: text, K: k})
				if err != nil {
					t.Fatal(err)
				}
				if !hitsEqual(want, got) {
					t.Fatalf("%s: %q k=%d: sharded dual diverges from the single store:\n  want %v\n  got  %v", label, text, k, want, got)
				}
			}
		}
	}
}

// TestDualCacheFollowsFeedback: feedback reinforces the thesaurus
// without publishing an epoch, so a dual-coding text can expand
// differently within one epoch. The cached answer must follow the new
// expansion — the same ranking a cache-off recomputation returns — on a
// single store and on the sharded gather.
func TestDualCacheFollowsFeedback(t *testing.T) {
	urls, anns := refreshCorpus(120, 5)
	single := oneShotStub(t, urls, anns)
	sharded, err := NewSharded(2)
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
		name      string
		r         Retriever
		cache     func(maxBytes int64)
		reinforce func(words, concepts []string, relevant bool) error
	}{
		{"single", single, single.SetResultCache, single.reinforceLogged},
		{"sharded", sharded, sharded.SetResultCache, sharded.ReinforceLogged},
	} {
		const text, k = "harbor gull", 10
		tc.cache(1 << 20)
		before := tc.r.ExpandQuery(text, dualConcepts)
		stale, err := rank(tc.r, Query{Stmt: StmtDual, Text: text, K: k})
		if err != nil {
			t.Fatal(err)
		}
		var concept string
		for _, c := range tc.r.Thesaurus().Concepts() {
			if !slices.Contains(before, c) {
				concept = c
				break
			}
		}
		for i := 0; i < 50; i++ {
			if err := tc.reinforce(ir.Analyze(text), []string{concept}, true); err != nil {
				t.Fatal(err)
			}
		}
		if after := tc.r.ExpandQuery(text, dualConcepts); slices.Equal(before, after) {
			t.Fatalf("%s: reinforcing %q left the expansion at %v; the probe tests nothing", tc.name, concept, before)
		}
		got, err := rank(tc.r, Query{Stmt: StmtDual, Text: text, K: k})
		if err != nil {
			t.Fatal(err)
		}
		tc.cache(0)
		want, err := rank(tc.r, Query{Stmt: StmtDual, Text: text, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if hitsEqual(want, stale) {
			t.Fatalf("%s: the new expansion does not move the ranking; the probe tests nothing", tc.name)
		}
		if !hitsEqual(want, got) {
			t.Fatalf("%s: cached dual coding ignores the feedback-moved expansion:\n  cache-off %v\n  cached    %v", tc.name, want, got)
		}
	}
}
