package core

import (
	"testing"

	"mirror/internal/corpus"
)

// TestRebuildIndexAfterNewImages exercises the maintenance path: new
// footage arrives, the daemons re-run, the internal schema is rebuilt from
// scratch (as the prototype's daemons did when the collection changed).
func TestRebuildIndexAfterNewImages(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 20, W: 48, H: 48, Seed: 23, AnnotateRate: 1})
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4

	for _, it := range items[:12] {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	res, err := adhoc(m, `count(ImageLibraryInternal);`, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 12 {
		t.Fatalf("internal count = %v", res.Scalar)
	}

	// more images arrive; the index is stale until rebuilt
	for _, it := range items[12:] {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	// Inserts no longer un-index the store: the published epoch keeps
	// serving (snapshot isolation), the new documents are merely pending.
	if !m.Indexed() {
		t.Fatal("inserts must not un-index the store")
	}
	if m.Current() {
		t.Fatal("epoch should not cover the new inserts yet")
	}
	if hits, err := m.QueryAnnotations("ocean", 3); err != nil {
		t.Fatalf("pending inserts must not break queries: %v", err)
	} else {
		for _, h := range hits {
			if int(h.OID) >= 12 {
				t.Fatalf("query over the pinned epoch returned pending document %d", h.OID)
			}
		}
	}
	// The snapshot still counts 12 documents even though 20 are ingested.
	res, err = adhoc(m, `count(ImageLibraryInternal);`, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 12 {
		t.Fatalf("epoch-internal count = %v, want 12", res.Scalar)
	}
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	res, err = adhoc(m, `count(ImageLibraryInternal);`, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 20 {
		t.Fatalf("internal count after rebuild = %v", res.Scalar)
	}
	hits, err := m.QueryAnnotations(corpus.CanonicalTerm(items[19].Classes[0]), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("rebuilt index returned no hits")
	}
	// new items are reachable
	found := false
	for _, h := range hits {
		if int(h.OID) >= 12 {
			found = true
		}
	}
	// (not guaranteed for every class, but the queried class comes from a
	// late item, so at least its own document must rank)
	if !found {
		for _, h := range hits {
			t.Logf("hit %d %s %f", h.OID, h.URL, h.Score)
		}
		t.Fatal("no late item reachable after rebuild")
	}
}

// TestConcurrentQueriesAgainstCore runs parallel read queries against one
// indexed instance (single-writer/multi-reader contract).
func TestConcurrentQueriesAgainstCore(t *testing.T) {
	m, items := buildDemo(t, 16)
	term := corpus.CanonicalTerm(mostAnnotatedClass(items))
	want, err := m.QueryAnnotations(term, 5)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func() {
			for i := 0; i < 15; i++ {
				hits, err := m.QueryAnnotations(term, 5)
				if err != nil {
					done <- err
					return
				}
				if len(hits) != len(want) || hits[0].OID != want[0].OID {
					done <- errMismatch{}
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 6; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "concurrent query results diverged" }
