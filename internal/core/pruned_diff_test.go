package core

import (
	"fmt"
	"math/rand"
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
// layout stopped being writable. The query mix is the one every core
// differential uses; the >2-term last-ulp gap between the two plans on
// large collections — ROADMAP item 1 — does not arise at these sizes and
// is not this suite's to fix.)

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
// site's k = 0 ranking. Annotation and content cuts run the pruned plan;
// dual coding combines two exhaustive evidence scans either way and
// rides along as the control.
func assertPrunedEqualsExhaustive(t *testing.T, label string, site retrievalSite, k int) {
	t.Helper()
	check := func(what string, query func(k int) ([]Hit, error)) {
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
	for _, q := range []string{"harbor gull", "tide", "kelp foam buoy", "lantern mist salt", "gull gull pier"} {
		check(fmt.Sprintf("annotations %q", q), func(k int) ([]Hit, error) { return site.QueryAnnotations(q, k) })
		check(fmt.Sprintf("dual coding %q", q), func(k int) ([]Hit, error) { return site.QueryDualCoding(q, k) })
	}
	for _, cw := range [][]string{{"stub_a_0", "stub_b_2"}, {"stub_a_1", "stub_a_3", "stub_b_0"}} {
		check(fmt.Sprintf("content %v", cw), func(k int) ([]Hit, error) { return site.QueryContent(cw, k) })
	}
}

// TestPrunedEqualsExhaustiveSingleStore: single store, segmented by
// delta refreshes (and compacted by the merge policy).
func TestPrunedEqualsExhaustiveSingleStore(t *testing.T) {
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
}

// TestPrunedEqualsExhaustiveSharded extends the guarantee across shard
// counts N ∈ {1, 2, 8}, with per-shard segment directories built by the
// same delta interleavings.
func TestPrunedEqualsExhaustiveSharded(t *testing.T) {
	const n = 30
	urls, anns := refreshCorpus(n, 17)
	for _, shards := range []int{1, 2, 8} {
		e, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(60 + shards)))
		batch := 8 + rng.Intn(10)
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
		label := fmt.Sprintf("%d shards", shards)
		for _, k := range []int{1, 10, n + 3} {
			assertPrunedEqualsExhaustive(t, label, e, k)
		}
	}
}
