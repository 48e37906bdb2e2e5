package core

import (
	"path/filepath"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
	"mirror/internal/daemon"
	"mirror/internal/dict"
)

// buildDemo ingests a small deterministic collection and runs the local
// pipeline once; it is shared across the tests in this file.
func buildDemo(t *testing.T, n int) (*Mirror, []*corpus.Item) {
	t.Helper()
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return m, fillDemo(t, m, n)
}

// fillDemo ingests and indexes buildDemo's collection into m.
func fillDemo(t *testing.T, m *Mirror, n int) []*corpus.Item {
	t.Helper()
	items := corpus.Generate(corpus.Config{N: n, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"} // keep tests fast
	opts.KMax = 6
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	return items
}

func TestIngestAndIndex(t *testing.T) {
	m, items := buildDemo(t, 24)
	if m.Size() != 24 {
		t.Fatalf("size = %d", m.Size())
	}
	if !m.Indexed() {
		t.Fatal("index flag not set")
	}
	// every item gained content terms
	for i := range items {
		if len(m.ContentTerms(bat.OID(i))) == 0 {
			t.Fatalf("item %d has no content terms", i)
		}
	}
	if m.Thes == nil || len(m.Thes.Concepts()) == 0 {
		t.Fatal("thesaurus not built")
	}
	if err := m.AddImage(items[0].URL, "", items[0].Scene.Img); err == nil {
		t.Fatal("duplicate URL should fail")
	}
}

func TestQueryBeforeIndexFails(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryAnnotations("ocean", 5); err == nil {
		t.Fatal("query before indexing should fail")
	}
}

func TestQueryAnnotationsRanking(t *testing.T) {
	m, items := buildDemo(t, 24)
	// choose a class that occurs in the collection with annotations
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	hits, err := m.QueryAnnotations(term, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// the top hit must actually contain the class (its annotation mentions
	// the canonical term, so belief ≫ default)
	top := items[hits[0].OID]
	if !top.HasClass(class) {
		t.Fatalf("top hit %d (%s) lacks class %s", hits[0].OID, top.Annotation, term)
	}
	if hits[0].URL != top.URL {
		t.Fatalf("hit URL %q != item URL %q", hits[0].URL, top.URL)
	}
	// scores are non-increasing
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestExpandQueryAndContentQuery(t *testing.T) {
	m, items := buildDemo(t, 24)
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	clusters := m.ExpandQuery(term, 4)
	if len(clusters) == 0 {
		t.Fatalf("thesaurus expansion of %q empty", term)
	}
	hits, err := m.QueryContent(clusters, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("content query returned nothing")
	}
}

func TestDualCodingFindsUnannotated(t *testing.T) {
	// Dual coding's promise: a text query can retrieve UNANNOTATED images
	// whose visual content matches, via the thesaurus.
	m, items := buildDemo(t, 36)
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	hits, err := rank(m, Query{Stmt: StmtDual, Text: term, K: len(items)})
	if err != nil {
		t.Fatal(err)
	}
	// find the rank of the best unannotated item containing the class
	bestUnann := -1
	for rank, h := range hits {
		it := items[h.OID]
		if it.Annotation == "" && it.HasClass(class) {
			bestUnann = rank
			break
		}
	}
	hasUnannotatedWithClass := false
	for _, it := range items {
		if it.Annotation == "" && it.HasClass(class) {
			hasUnannotatedWithClass = true
		}
	}
	if hasUnannotatedWithClass && bestUnann == -1 {
		t.Fatal("dual coding never surfaced an unannotated in-class item")
	}
}

func TestSessionFeedbackImproves(t *testing.T) {
	m, items := buildDemo(t, 36)
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	sess, err := m.NewSession(term)
	if err != nil {
		t.Fatal(err)
	}
	relevant := func(h Hit) bool { return items[h.OID].HasClass(class) }

	// Feedback's contribution shows on the UNANNOTATED items, where text
	// evidence is silent and only the learned content weights rank: measure
	// precision over the unannotated portion of the ranking.
	unannPrecision := func(hits []Hit, k int) float64 {
		var un []Hit
		for _, h := range hits {
			if items[h.OID].Annotation == "" {
				un = append(un, h)
			}
		}
		return PrecisionAtK(un, k, relevant)
	}

	hits0, err := rank(m, sess.Query(0))
	if err != nil {
		t.Fatal(err)
	}
	p0 := unannPrecision(hits0, 5)

	// the user judges the visible top 12 over two rounds
	for round := 0; round < 2; round++ {
		hits, err := rank(m, sess.Query(12))
		if err != nil {
			t.Fatal(err)
		}
		var rel, nonrel []bat.OID
		for _, h := range hits {
			if relevant(h) {
				rel = append(rel, h.OID)
			} else {
				nonrel = append(nonrel, h.OID)
			}
		}
		if sess, err = m.SessionFeedback(sess, rel, nonrel); err != nil {
			t.Fatal(err)
		}
	}
	hits2, err := rank(m, sess.Query(0))
	if err != nil {
		t.Fatal(err)
	}
	p2 := unannPrecision(hits2, 5)
	if p2 < p0 {
		t.Fatalf("feedback degraded unannotated precision: %v → %v", p0, p2)
	}
	if sess.Round != 2 {
		t.Fatalf("round = %d", sess.Round)
	}
	if _, err := m.SessionFeedback(sess, nil, nil); err == nil {
		t.Fatal("empty feedback should error")
	}
	if len(sess.Concepts) != len(sess.Weights) || len(sess.Concepts) == 0 {
		t.Fatalf("cluster weights: %v %v", sess.Concepts, sess.Weights)
	}
}

func TestRawMoaQueryThroughCore(t *testing.T) {
	m, _ := buildDemo(t, 12)
	res, err := adhoc(m, `count(ImageLibraryInternal);`, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 12 {
		t.Fatalf("count = %v", res.Scalar)
	}
	res, err = adhoc(m, `
		map[sum(THIS)](
			map[getBL(THIS.annotation, query, stats)](ImageLibraryInternal));`,
		AnalyzeQuery("ocean"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// TestSaveLoadRoundTrip checkpoints a persistent store and reloads it
// with the read-only Load: same hits, thesaurus, and raster
// re-attachment.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	m, _ := openStore(t, dir)
	defer m.ClosePersistent()
	items := fillDemo(t, m, 16)
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	before, err := m.QueryAnnotations(term, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Size() != 16 || !m2.Indexed() {
		t.Fatalf("loaded size=%d indexed=%v", m2.Size(), m2.Indexed())
	}
	after, err := m2.QueryAnnotations(term, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("hit counts differ: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].OID != after[i].OID || before[i].Score != after[i].Score {
			t.Fatalf("hit %d differs after reload: %+v vs %+v", i, before[i], after[i])
		}
	}
	// thesaurus survived
	if m2.Thes == nil || len(m2.ExpandQuery(term, 3)) == 0 {
		t.Fatal("thesaurus lost in round trip")
	}
	// raster re-attachment
	if err := m2.AddRaster(items[0].URL, items[0].Scene.Img); err != nil {
		t.Fatal(err)
	}
	if err := m2.AddRaster("http://nope", items[0].Scene.Img); err == nil {
		t.Fatal("AddRaster for unknown URL should fail")
	}
}

func TestDistributedPipelineMatchesLocal(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 10, W: 32, H: 32, Seed: 21, AnnotateRate: 1})
	mkMirror := func() *Mirror {
		m, err := New()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4

	local := mkMirror()
	if err := local.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}

	dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDict()
	handles, err := daemon.StartDemoDaemons(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, h := range handles {
			h.Stop()
		}
	}()
	remote := mkMirror()
	if err := remote.BuildContentIndexDistributed(opts, dictAddr); err != nil {
		t.Fatal(err)
	}

	// both pipelines are deterministic and must agree exactly
	for i := 0; i < len(items); i++ {
		lt := local.ContentTerms(bat.OID(i))
		rt := remote.ContentTerms(bat.OID(i))
		if len(lt) != len(rt) {
			t.Fatalf("item %d: %v vs %v", i, lt, rt)
		}
		for j := range lt {
			if lt[j] != rt[j] {
				t.Fatalf("item %d term %d: %q vs %q", i, j, lt[j], rt[j])
			}
		}
	}
}

func TestServeAndClient(t *testing.T) {
	m, items := buildDemo(t, 12)
	dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDict()
	_, stop, err := m.Serve("127.0.0.1:0", dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	c, err := DiscoverMirror(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	schema, err := c.Schema()
	if err != nil || schema == "" {
		t.Fatalf("schema: %q, %v", schema, err)
	}
	class := mostAnnotatedClass(items)
	hits, err := c.TextQuery(corpus.CanonicalTerm(class), 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].URL == "" {
		t.Fatalf("hits = %v", hits)
	}
	dual, err := c.TextQuery(corpus.CanonicalTerm(class), 5, true)
	if err != nil || len(dual) == 0 {
		t.Fatalf("dual hits: %v, %v", dual, err)
	}
	reply, err := c.MoaQuery(`count(ImageLibraryInternal);`, nil)
	if err != nil || reply.Scalar != "12" {
		t.Fatalf("moa count over wire = %+v, %v", reply, err)
	}
	if _, err := c.MoaQuery(`bogus syntax(`, nil); err == nil {
		t.Fatal("bad query should propagate an error")
	}
}

// mostAnnotatedClass picks the class that appears in the most annotated
// items, so ranking tests have enough signal.
func mostAnnotatedClass(items []*corpus.Item) int {
	counts := map[int]int{}
	for _, it := range items {
		if it.Annotation == "" {
			continue
		}
		for _, c := range it.Classes {
			counts[c]++
		}
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}
