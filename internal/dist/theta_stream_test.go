package dist

import (
	"testing"

	"mirror/internal/core"
	"mirror/internal/corpus"
)

// The streamed-θ differential: a router that pushes its rising pruning
// bound into in-flight shard scans must answer every retrieval surface
// BUN-for-BUN identically to the in-process sharded engine (whose legs
// read the shared threshold live) and to a single store — on the first
// pass, on the memo-seeded repeat pass, and across an incremental refresh
// whose new tag must orphan every memoised seed. Streaming and seeding
// are pruning-only; any divergence means a threshold exceeded the global
// k-th best score somewhere.
func TestStreamedThetaDifferential(t *testing.T) {
	items := testItems(26)
	first, rest := items[:18], items[18:]
	opts := testIndexOptions()

	single, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewSharded(3)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 3, 2)
	ingest := func(batch []*corpus.Item) {
		for _, it := range batch {
			for _, r := range []core.Retriever{single, sharded} {
				if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.ingest(batch)
	}

	ingest(first)
	for _, r := range []core.Retriever{single, sharded, c.router} {
		if err := r.BuildContentIndex(opts); err != nil {
			t.Fatal(err)
		}
	}
	compareEngines(t, "build", single, sharded, c.router)

	// Repeat pass: identical queries now scatter with every leg's floor
	// seeded at the previous merge's terminal k-th score.
	compareEngines(t, "seeded", single, sharded, c.router)
	if st := c.router.ThetaMemoStats(); st.Hits == 0 {
		t.Fatalf("repeat pass never reused a memoised scatter seed: %+v", st)
	}

	// Incremental round: the refresh advances the epoch-vector tag, so
	// stale seeds must be unreachable and every engine re-derives.
	ingest(rest)
	for _, r := range []core.Retriever{single, sharded, c.router} {
		if _, err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	compareEngines(t, "refresh", single, sharded, c.router)
	compareEngines(t, "refresh seeded", single, sharded, c.router)
	t.Logf("streamed θ raises pushed: %d", c.router.ThetaStreamed())
}
