package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Pruned-vs-exhaustive differential tests at the retrieval surface: the
// same store — built by a batch plus an rng-chosen interleaving of delta
// refreshes, with whatever merges the compaction policy triggers — must
// answer every k-cut exactly as the prefix of its own k = 0 ranking,
// which runs the exhaustive getbl + fill + sort plan and never touches
// the block scan. Beliefs survive the block codec bit-exact and the
// block-max bounds are quantized conservatively, so any divergence here
// is a pruning bug, not an accepted approximation. (These suites took
// over the corpora of the former raw-vs-block differential when the raw
// layout stopped being writable.) Each suite ends with a large round:
// 20 000 documents and 3–6-term queries, whose exhaustive plan folds well
// over 8 192 belief BUNs — the size at which a BUN-partitioned SumBeliefs
// once added per-chunk partial sums as (a)+(b+c) and missed the scan's
// fold by an ulp. The suites run at GOMAXPROCS=4 so that such a kernel
// would fan out even on a 1-CPU machine.

// largeRoundDocs is the collection size of the large rounds.
const largeRoundDocs = 20000

// largeRoundQueries are the large rounds' annotation queries: two that
// diverged by an ulp under the partitioned fold, then 3–6-term queries
// drawn from refreshVocab.
func largeRoundQueries() []string {
	qs := []string{"kelp foam buoy", "gull tide pier rope"}
	rng := rand.New(rand.NewSource(77))
	for len(qs) < 8 {
		words := make([]string, 3+rng.Intn(4))
		for i := range words {
			words[i] = refreshVocab[rng.Intn(len(refreshVocab))]
		}
		qs = append(qs, strings.Join(words, " "))
	}
	return qs
}

// buildStubIncremental builds one store over the corpus: batch over a
// prefix, then delta refreshes over rng-chosen cut points.
func buildStubIncremental(t *testing.T, urls, anns []string, seed int64) *Mirror {
	t.Helper()
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(urls)
	batch := 1 + rng.Intn(n-1)
	for i := 0; i < batch; i++ {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		t.Fatal(err)
	}
	for at := batch; at < n; {
		step := 1 + rng.Intn(n-at)
		for i := at; i < at+step; i++ {
			if err := m.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		at += step
		refreshStub(t, m)
	}
	return m
}

// assertPrunedEqualsExhaustive demands, for every retrieval surface, that
// the k-cut is hit-for-hit (ties included) the first k of the same
// site's k = 0 ranking. Annotation and content cuts run the pruned plan,
// dual-coding cuts its two-source form.
func assertPrunedEqualsExhaustive(t *testing.T, label string, site retrievalSite, k int) {
	t.Helper()
	for _, q := range []string{"harbor gull", "tide", "kelp foam buoy", "lantern mist salt", "gull gull pier"} {
		assertCutIsPrefix(t, label, fmt.Sprintf("annotations %q", q), k, func(k int) ([]Hit, error) { return site.QueryAnnotations(q, k) })
		assertCutIsPrefix(t, label, fmt.Sprintf("dual coding %q", q), k, func(k int) ([]Hit, error) { return rank(site, Query{Stmt: StmtDual, Text: q, K: k}) })
	}
	for _, cw := range [][]string{{"stub_a_0", "stub_b_2"}, {"stub_a_1", "stub_a_3", "stub_b_0"}} {
		assertCutIsPrefix(t, label, fmt.Sprintf("content %v", cw), k, func(k int) ([]Hit, error) { return site.QueryContent(cw, k) })
	}
}

// assertLargeRound runs the large rounds' annotation and dual-coding
// queries at k = 1 and 10 against their own k = 0 ranking.
func assertLargeRound(t *testing.T, label string, site retrievalSite) {
	t.Helper()
	for _, q := range largeRoundQueries() {
		for what, query := range map[string]func(string, int) ([]Hit, error){
			"annotations": site.QueryAnnotations,
			"dual coding": func(text string, k int) ([]Hit, error) { return rank(site, Query{Stmt: StmtDual, Text: text, K: k}) },
		} {
			full, err := query(q, 0)
			if err != nil {
				t.Fatalf("%s: exhaustive %s %q: %v", label, what, q, err)
			}
			for _, k := range []int{1, 10} {
				assertCutIsPrefix(t, label, fmt.Sprintf("%s %q", what, q), k, func(k int) ([]Hit, error) {
					if k == 0 {
						return full, nil
					}
					return query(q, k)
				})
			}
		}
	}
}

// assertCutIsPrefix demands that query's k-cut is hit-for-hit the first k
// of its k = 0 ranking.
func assertCutIsPrefix(t *testing.T, label, what string, k int, query func(k int) ([]Hit, error)) {
	t.Helper()
	full, err := query(0)
	if err != nil {
		t.Fatalf("%s: exhaustive %s: %v", label, what, err)
	}
	cut, err := query(k)
	if err != nil {
		t.Fatalf("%s: pruned %s: %v", label, what, err)
	}
	if len(full) > k {
		full = full[:k]
	}
	if !hitsEqual(full, cut) {
		t.Fatalf("%s: %s top-%d diverges from the exhaustive ranking:\n  want %v\n  got  %v", label, what, k, full, cut)
	}
}

// TestPrunedEqualsExhaustiveSingleStore: single store, segmented by
// delta refreshes (and compacted by the merge policy).
func TestPrunedEqualsExhaustiveSingleStore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := 0; round < 4; round++ {
		rng := rand.New(rand.NewSource(int64(500 + round)))
		n := 20 + rng.Intn(25)
		urls, anns := refreshCorpus(n, int64(900+round))
		m := buildStubIncremental(t, urls, anns, int64(40+round))
		label := fmt.Sprintf("round %d (%d docs)", round, n)
		for _, k := range []int{1, 10, n + 3} {
			assertPrunedEqualsExhaustive(t, label, m, k)
		}
	}
	urls, anns := refreshCorpus(largeRoundDocs, 99)
	assertLargeRound(t, "large round", buildStubIncremental(t, urls, anns, 44))
}

// TestPrunedEqualsExhaustiveSharded extends the guarantee across shard
// counts N ∈ {1, 2, 8}, with per-shard segment directories built by the
// same delta interleavings.
func TestPrunedEqualsExhaustiveSharded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 30
	urls, anns := refreshCorpus(n, 17)
	for _, shards := range []int{1, 2, 8} {
		e := buildShardedIncremental(t, shards, urls, anns, 8, int64(60+shards))
		label := fmt.Sprintf("%d shards", shards)
		for _, k := range []int{1, 10, n + 3} {
			assertPrunedEqualsExhaustive(t, label, e, k)
		}
	}
	urls, anns = refreshCorpus(largeRoundDocs, 99)
	for _, shards := range []int{2, 8} {
		e := buildShardedIncremental(t, shards, urls, anns, largeRoundDocs/2, int64(70+shards))
		assertLargeRound(t, fmt.Sprintf("large round, %d shards", shards), e)
	}
}

// buildShardedIncremental builds a sharded engine over the corpus: a batch
// of at least minBatch documents, then delta refreshes over rng-chosen cut
// points.
func buildShardedIncremental(t *testing.T, shards int, urls, anns []string, minBatch int, seed int64) *ShardedEngine {
	t.Helper()
	e, err := NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(urls)
	batch := minBatch + rng.Intn(10)
	for i := 0; i < batch; i++ {
		if err := e.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		t.Fatal(err)
	}
	for at := batch; at < n; {
		step := 1 + rng.Intn(n-at)
		for i := at; i < at+step; i++ {
			if err := e.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		at += step
		engineRefreshStub(t, e)
	}
	return e
}
