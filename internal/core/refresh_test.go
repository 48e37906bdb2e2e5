package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mirror/internal/cluster"
	"mirror/internal/moa"
)

// ---- deterministic stub pipeline ----
//
// The differential guarantee under test is about the INDEXING machinery —
// delta segments, merged statistics, compaction, epochs — not about
// clustering. A real pipeline refits its mixture models on every full
// build, so "batch+deltas vs one-shot" would compare different content
// vocabularies. The stub pins that variable: extraction is a pure
// function of the URL and fit returns a FIXED nearest-anchor codebook, so
// one-shot clustering and incremental frozen-codebook assignment agree by
// construction, and any divergence the tests catch is real.

var stubFeatureNames = []string{"stub_a", "stub_b"}

type stubPipeline struct{}

func (stubPipeline) features() []string { return stubFeatureNames }
func (stubPipeline) close()             {}

func stubHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func (stubPipeline) segment(url string) ([][][4]int, error) {
	n := int(stubHash(url)%3) + 1
	out := make([][][4]int, n)
	for i := range out {
		out[i] = [][4]int{{i, 0, 1, 1}}
	}
	return out, nil
}

func (stubPipeline) extract(url, fname string, tiles [][4]int) ([]float64, error) {
	k := float64(stubHash(fmt.Sprintf("%s|%s|%v", url, fname, tiles)) % 4)
	return []float64{k * 10, 100 - k*10}, nil // exactly on anchor k
}

func stubSpaceCodebook() *SpaceCodebook {
	model := &cluster.Model{K: 4, D: 2, Weights: make([]float64, 4)}
	for k := 0; k < 4; k++ {
		model.Weights[k] = 0.25
		model.Means = append(model.Means, []float64{float64(k) * 10, 100 - float64(k)*10})
		model.Vars = append(model.Vars, []float64{1, 1})
	}
	return &SpaceCodebook{Means: []float64{0, 0}, Stds: []float64{1, 1}, Model: model}
}

func (stubPipeline) fit(data [][]float64, _, _ int, _ int64) ([]int, *SpaceCodebook, error) {
	sc := stubSpaceCodebook()
	return sc.AssignAll(data), sc, nil
}

// ---- corpus ----

var refreshVocab = []string{
	"harbor", "harbor", "gull", "gull", "tide", "pier", "rope", "salt",
	"mist", "buoy", "anchor", "kelp", "foam", "driftwood", "lantern",
}

func refreshCorpus(n int, seed int64) (urls, anns []string) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		urls = append(urls, fmt.Sprintf("img://doc-%03d", i))
		if rng.Intn(6) == 0 {
			anns = append(anns, "") // empty annotations still count in N/avgdl
			continue
		}
		var sb strings.Builder
		for j, m := 0, 1+rng.Intn(6); j < m; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(refreshVocab[rng.Intn(len(refreshVocab))])
		}
		anns = append(anns, sb.String())
	}
	return urls, anns
}

// oneShotStub builds a single store over docs[:n] with one full build.
func oneShotStub(t *testing.T, urls, anns []string) *Mirror {
	t.Helper()
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i := range urls {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		t.Fatal(err)
	}
	return m
}

func refreshStub(t *testing.T, m *Mirror) RefreshStats {
	t.Helper()
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	st, err := m.refreshWith(stubPipeline{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func engineRefreshStub(t *testing.T, e *ShardedEngine) RefreshStats {
	t.Helper()
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	st, err := e.refreshWith(stubPipeline{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].OID != b[i].OID || a[i].Score != b[i].Score || a[i].URL != b[i].URL {
			return false
		}
	}
	return true
}

type retrievalSite interface {
	ranker
	QueryAnnotations(text string, k int) ([]Hit, error)
	QueryContent(clusterWords []string, k int) ([]Hit, error)
}

// ranker is anything that runs ranked queries: every engine.
type ranker interface {
	Run(q Query) ([]Hit, EpochStamp, error)
}

// rank runs q on r without its stamp.
func rank(r ranker, q Query) ([]Hit, error) {
	hits, _, err := r.Run(q)
	return hits, err
}

// adhoc runs an ad-hoc Moa query on r without its stamp.
func adhoc(r interface {
	QueryTopKStamped(string, []string, int) (*moa.Result, EpochStamp, error)
}, src string, terms []string, k int) (*moa.Result, error) {
	res, _, err := r.QueryTopKStamped(src, terms, k)
	return res, err
}

// assertSameRetrieval compares annotation, content and dual-coding
// retrieval BUN-for-BUN between two sites.
func assertSameRetrieval(t *testing.T, label string, want, got retrievalSite, k int) {
	t.Helper()
	for _, q := range []string{"harbor gull", "tide", "kelp foam buoy", "lantern mist salt", "gull gull pier"} {
		wh, err := want.QueryAnnotations(q, k)
		if err != nil {
			t.Fatalf("%s: ref ann %q: %v", label, q, err)
		}
		gh, err := got.QueryAnnotations(q, k)
		if err != nil {
			t.Fatalf("%s: got ann %q: %v", label, q, err)
		}
		if !hitsEqual(wh, gh) {
			t.Fatalf("%s: annotation ranking for %q diverges:\n  want %v\n  got  %v", label, q, wh, gh)
		}
		dw, err := rank(want, Query{Stmt: StmtDual, Text: q, K: k})
		if err != nil {
			t.Fatalf("%s: ref dual %q: %v", label, q, err)
		}
		dg, err := rank(got, Query{Stmt: StmtDual, Text: q, K: k})
		if err != nil {
			t.Fatalf("%s: got dual %q: %v", label, q, err)
		}
		if !hitsEqual(dw, dg) {
			t.Fatalf("%s: dual-coding ranking for %q diverges:\n  want %v\n  got  %v", label, q, dw, dg)
		}
	}
	for _, cw := range [][]string{{"stub_a_0", "stub_b_2"}, {"stub_a_1", "stub_a_3", "stub_b_0"}} {
		wh, err := want.QueryContent(cw, k)
		if err != nil {
			t.Fatalf("%s: ref content %v: %v", label, cw, err)
		}
		gh, err := got.QueryContent(cw, k)
		if err != nil {
			t.Fatalf("%s: got content %v: %v", label, cw, err)
		}
		if !hitsEqual(wh, gh) {
			t.Fatalf("%s: content ranking for %v diverges:\n  want %v\n  got  %v", label, cw, wh, gh)
		}
	}
}

// TestIncrementalEqualsOneShotSingleStore is the core differential
// guarantee: batch build + N delta refreshes (+ the background merges the
// policy triggers), over random interleavings, answers every retrieval
// BUN-for-BUN identically to one BuildContentIndex over the same corpus.
func TestIncrementalEqualsOneShotSingleStore(t *testing.T) {
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(100 + round)))
		n := 20 + rng.Intn(25)
		urls, anns := refreshCorpus(n, int64(round))
		ref := oneShotStub(t, urls, anns)

		inc, err := New()
		if err != nil {
			t.Fatal(err)
		}
		batch := 1 + rng.Intn(n-1)
		for i := 0; i < batch; i++ {
			if err := inc.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}
		refreshes := 0
		for at := batch; at < n; {
			step := 1 + rng.Intn(n-at)
			for i := at; i < at+step; i++ {
				if err := inc.AddImage(urls[i], anns[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			at += step
			refreshStub(t, inc)
			refreshes++
		}
		if !inc.Current() {
			t.Fatal("incremental store not current after final refresh")
		}
		label := fmt.Sprintf("round %d (n=%d batch=%d refreshes=%d segs=%d)",
			round, n, batch, refreshes, inc.maxSegments())
		assertSameRetrieval(t, label, ref, inc, 10)
		assertSameRetrieval(t, label+" full", ref, inc, 0)

		// Raw Moa query path over the epoch, BUN-for-BUN.
		wres, err := adhoc(ref, annotationQuery, AnalyzeQuery("harbor tide"), 7)
		if err != nil {
			t.Fatal(err)
		}
		gres, err := adhoc(inc, annotationQuery, AnalyzeQuery("harbor tide"), 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(wres.Rows) != len(gres.Rows) {
			t.Fatalf("%s: raw rows %d vs %d", label, len(wres.Rows), len(gres.Rows))
		}
		for i := range wres.Rows {
			if wres.Rows[i].OID != gres.Rows[i].OID || wres.Rows[i].Value != gres.Rows[i].Value {
				t.Fatalf("%s: raw row %d: %+v vs %+v", label, i, wres.Rows[i], gres.Rows[i])
			}
		}
	}
}

// TestIncrementalEqualsOneShotSharded extends the guarantee across shard
// counts: for N ∈ {1, 2, 8}, batch + refreshes on the sharded engine ≡
// one-shot on the sharded engine ≡ one-shot on a single store.
func TestIncrementalEqualsOneShotSharded(t *testing.T) {
	const n = 30
	urls, anns := refreshCorpus(n, 7)
	single := oneShotStub(t, urls, anns)
	for _, shards := range []int{1, 2, 8} {
		ref, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := range urls {
			if err := ref.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}

		inc, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		batch := 8 + rng.Intn(10)
		for i := 0; i < batch; i++ {
			if err := inc.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}
		for at := batch; at < n; {
			step := 1 + rng.Intn(n-at)
			for i := at; i < at+step; i++ {
				if err := inc.AddImage(urls[i], anns[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			at += step
			engineRefreshStub(t, inc)
		}
		if !inc.Current() {
			t.Fatalf("%d shards: engine not current after refreshes", shards)
		}
		label := fmt.Sprintf("%d shards", shards)
		assertSameRetrieval(t, label+" inc-vs-sharded-oneshot", ref, inc, 10)
		assertSameRetrieval(t, label+" inc-vs-single-oneshot", single, inc, 10)
		assertSameRetrieval(t, label+" full-ranking", single, inc, 0)
		// Every shard member folds its delta into the shared thesaurus
		// beside its own CONTREP apply; the folds must add up to the
		// single store's.
		if !reflect.DeepEqual(inc.Thesaurus().State(), single.Thesaurus().State()) {
			t.Fatalf("%s: incremental engine thesaurus differs from the single store's", label)
		}
	}
}

// TestRefreshIsSnapshotIsolated pins the epoch semantics: a query result
// pinned before a refresh is unaffected by it, and Indexed()/Current()
// report the pending state honestly.
func TestRefreshIsSnapshotIsolated(t *testing.T) {
	urls, anns := refreshCorpus(16, 3)
	m := oneShotStub(t, urls[:12], anns[:12])
	ep := m.currentEpoch()
	pinned := NewGather(spyShards{v: &legSpy{storeView: storeView{ep}}})
	before, err := pinned.QueryAnnotations("harbor gull", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 16; i++ {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Indexed() || m.Current() {
		t.Fatalf("Indexed=%v Current=%v, want true/false", m.Indexed(), m.Current())
	}
	if m.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", m.Pending())
	}
	st := refreshStub(t, m)
	if st.NewDocs != 4 || !m.Current() {
		t.Fatalf("refresh covered %d docs (current=%v), want 4/true", st.NewDocs, m.Current())
	}
	// The pinned pre-refresh epoch still answers exactly as before.
	after, err := pinned.QueryAnnotations("harbor gull", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hitsEqual(before, after) {
		t.Fatal("pinned epoch's answer changed under a concurrent refresh")
	}
	if nep := m.currentEpoch(); nep.Seq <= ep.Seq || nep.Docs != 16 {
		t.Fatalf("new epoch seq=%d docs=%d, want seq>%d docs=16", nep.Seq, nep.Docs, ep.Seq)
	}
}

// TestErrNotIndexedTyped pins the typed error contract locally and over
// the RPC surface (verbatim message, errors.Is-able on the client).
func TestErrNotIndexedTyped(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryAnnotations("anything", 3); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("QueryAnnotations err = %v, want ErrNotIndexed", err)
	}
	if _, err := m.QueryContent([]string{"x"}, 3); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("QueryContent err = %v, want ErrNotIndexed", err)
	}
	if _, err := rank(m, Query{Stmt: StmtDual, Text: "x", K: 3}); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("QueryDualCoding err = %v, want ErrNotIndexed", err)
	}
	if _, err := m.NewSession("x"); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("NewSession err = %v, want ErrNotIndexed", err)
	}
	if _, err := m.Refresh(); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("Refresh err = %v, want ErrNotIndexed", err)
	}
	e, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAnnotations("anything", 3); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("sharded QueryAnnotations err = %v, want ErrNotIndexed", err)
	}

	// Over the wire: the message travels verbatim, and the typed client
	// maps it back so errors.Is works remotely too.
	addr, stop, err := m.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, qerr := c.TextQuery("anything", 3, false)
	if qerr == nil {
		t.Fatal("remote query on unindexed store succeeded")
	}
	if !errors.Is(qerr, ErrNotIndexed) {
		t.Fatalf("remote err %v is not ErrNotIndexed", qerr)
	}
	if !strings.Contains(qerr.Error(), ErrNotIndexed.Error()) {
		t.Fatalf("remote err %q lost the verbatim message", qerr.Error())
	}
}
