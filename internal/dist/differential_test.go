package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/media"
)

// annQuerySrc mirrors the paper's Section 3 ranking expression (the same
// source moash and the load harness send over the wire).
const annQuerySrc = `
	map[sum(THIS)](
		map[getBL(THIS.annotation, query, stats)]( ImageLibraryInternal ));`

// The distributed differential: a networked router over N shard daemons,
// the in-process sharded engine with N members, and a single store must
// answer every retrieval surface BUN-for-BUN — same documents, same
// scores, same tie order — for N ∈ {1, 2, 8}, across both the initial
// build and an incremental refresh.
func TestDifferentialTopologies(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		n := n
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) { runDifferential(t, n) })
	}
}

func runDifferential(t *testing.T, n int) {
	items := testItems(26)
	first, rest := items[:18], items[18:]
	opts := testIndexOptions()

	single, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewSharded(n)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, n, 2)

	for _, it := range first {
		for _, r := range []core.Retriever{single, sharded} {
			if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.ingest(first)

	if err := single.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := sharded.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := c.router.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	compareEngines(t, "build", single, sharded, c.router)
	c.catchUp()
	checkEpochVector(t, c)
	checkShardThesauri(t, "build", single, sharded, c)

	// Incremental round: ingest the remainder everywhere, snapshot the
	// replicas mid-ingest (their epoch vectors must stay consistent at
	// the PREVIOUS publish while the delta is pending), then refresh.
	for _, it := range rest {
		for _, r := range []core.Retriever{single, sharded} {
			if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.ingest(rest)
	c.catchUp()
	checkEpochVector(t, c) // mid-ingest: inserts shipped, epoch unmoved

	if _, err := single.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Refresh(); err != nil {
		t.Fatal(err)
	}
	st, err := c.router.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if st.NewDocs != len(rest) || st.Docs != len(items) {
		t.Fatalf("router refresh = %+v, want +%d/%d docs", st, len(rest), len(items))
	}
	compareEngines(t, "refresh", single, sharded, c.router)
	c.catchUp()
	checkEpochVector(t, c)
	checkShardThesauri(t, "refresh", single, sharded, c)
}

// checkShardThesauri pins the thesaurus fold on every publish path. The
// in-process engine's shards fold into one shared instance, which must
// equal the single store's. A router's shard members each fold only
// their own documents — full builds and deltas alike run the members'
// publish path — so their co-occurrence counts must sum to the router's
// global thesaurus, and every follower must replay its primary's.
func checkShardThesauri(t *testing.T, phase string, single *core.Mirror, sharded *core.ShardedEngine, c *cluster) {
	t.Helper()
	want := single.Thesaurus().State()
	if len(want.TF) == 0 {
		t.Fatalf("%s: the single store's thesaurus is empty", phase)
	}
	if got := sharded.Thesaurus().State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sharded engine thesaurus differs from the single store's", phase)
	}
	global := c.router.Thesaurus().State()
	tf := map[string]map[string]int{}
	clen := map[string]int{}
	for s, p := range c.primaries {
		st := p.Thesaurus().State()
		for _, f := range c.followers[s] {
			if !reflect.DeepEqual(f.Thesaurus().State(), st) {
				t.Fatalf("%s: shard %d follower thesaurus differs from its primary's", phase, s)
			}
		}
		for concept, words := range st.TF {
			if tf[concept] == nil {
				tf[concept] = map[string]int{}
			}
			for w, n := range words {
				tf[concept][w] += n
			}
		}
		for concept, n := range st.CLen {
			clen[concept] += n
		}
	}
	if !reflect.DeepEqual(tf, global.TF) || !reflect.DeepEqual(clen, global.CLen) {
		t.Fatalf("%s: shard members' co-occurrence counts do not sum to the router's thesaurus", phase)
	}
}

// compareEngines drives every retrieval surface against the three
// topologies and requires identical answers, ties included.
// hitsOf runs q on r without its stamp.
func hitsOf(r core.Retriever, q core.Query) ([]core.Hit, error) {
	hits, _, err := r.Run(q)
	return hits, err
}

func compareEngines(t *testing.T, phase string, single, sharded, router core.Retriever) {
	t.Helper()
	if a, b, c := single.Size(), sharded.Size(), router.Size(); a != b || a != c {
		t.Fatalf("%s: sizes %d/%d/%d", phase, a, b, c)
	}
	ss, ok1 := single.ServingEpoch()
	es, ok2 := sharded.ServingEpoch()
	rs, ok3 := router.ServingEpoch()
	if !ok1 || !ok2 || !ok3 || ss.Docs != es.Docs || ss.Docs != rs.Docs {
		t.Fatalf("%s: epoch stamps %+v/%+v/%+v", phase, ss, es, rs)
	}

	for class := 0; class < 6; class++ {
		term := corpus.CanonicalTerm(class)
		label := fmt.Sprintf("%s/%s", phase, term)
		for _, k := range []int{5, 0} {
			h1, st1, err1 := single.Run(core.Query{Stmt: core.StmtAnnotation, Text: term, K: k})
			h2, _, err2 := sharded.Run(core.Query{Stmt: core.StmtAnnotation, Text: term, K: k})
			h3, st3, err3 := router.Run(core.Query{Stmt: core.StmtAnnotation, Text: term, K: k})
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("%s k=%d: errs %v/%v/%v", label, k, err1, err2, err3)
			}
			if st1.Docs != st3.Docs {
				t.Fatalf("%s k=%d: stamp docs %d vs %d", label, k, st1.Docs, st3.Docs)
			}
			sameHits(t, label+"/ann/sharded", h1, h2, k)
			sameHits(t, label+"/ann/router", h1, h3, k)
		}

		d1, err1 := hitsOf(single, core.Query{Stmt: core.StmtDual, Text: term, K: 5})
		d2, err2 := hitsOf(sharded, core.Query{Stmt: core.StmtDual, Text: term, K: 5})
		d3, err3 := hitsOf(router, core.Query{Stmt: core.StmtDual, Text: term, K: 5})
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("%s dual: errs %v/%v/%v", label, err1, err2, err3)
		}
		sameHits(t, label+"/dual/sharded", d1, d2, 5)
		sameHits(t, label+"/dual/router", d1, d3, 5)

		// Thesaurus expansion feeds content retrieval; it must agree
		// before the content legs can.
		e1 := single.ExpandQuery(term, 6)
		e3 := router.ExpandQuery(term, 6)
		if !reflect.DeepEqual(e1, e3) {
			t.Fatalf("%s expand: %v vs %v", label, e1, e3)
		}
		if len(e1) > 0 {
			q1, err1 := hitsOf(single, core.Query{Stmt: core.StmtContent, Terms: e1, K: 5})
			q2, err2 := hitsOf(sharded, core.Query{Stmt: core.StmtContent, Terms: e1, K: 5})
			q3, err3 := hitsOf(router, core.Query{Stmt: core.StmtContent, Terms: e1, K: 5})
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("%s content: errs %v/%v/%v", label, err1, err2, err3)
			}
			sameHits(t, label+"/content/sharded", q1, q2, 5)
			sameHits(t, label+"/content/router", q1, q3, 5)
		}

		// Raw Moa over the wire-facing entry point.
		for _, k := range []int{5, 0} {
			r1, _, err1 := single.QueryTopKStamped(annQuerySrc, []string{term}, k)
			r2, _, err2 := sharded.QueryTopKStamped(annQuerySrc, []string{term}, k)
			r3, _, err3 := router.QueryTopKStamped(annQuerySrc, []string{term}, k)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("%s moa k=%d: errs %v/%v/%v", label, k, err1, err2, err3)
			}
			sameRows(t, label+"/moa/sharded", r1.Rows, r2.Rows)
			sameRows(t, label+"/moa/router", r1.Rows, r3.Rows)
		}
	}

	// Per-document cluster words must agree under global OIDs.
	for oid := 0; oid < single.Size(); oid++ {
		w1 := single.ContentTerms(bat.OID(oid))
		w3 := router.ContentTerms(bat.OID(oid))
		if !reflect.DeepEqual(w1, w3) {
			t.Fatalf("%s: ContentTerms(%d) = %v vs %v", phase, oid, w1, w3)
		}
	}
}

func sameHits(t *testing.T, label string, want, got []core.Hit, k int) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s (k=%d):\n want %v\n got  %v", label, k, want, got)
	}
}

func sameRows(t *testing.T, label string, want, got interface{}) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s:\n want %v\n got  %v", label, want, got)
	}
}

// checkEpochVector asserts the oracle side condition replication adds:
// after catch-up every replica of a shard serves exactly the primary's
// published epoch (tag, sequence and coverage) — a router failover can
// land on any replica and still answer for a published epoch.
func checkEpochVector(t *testing.T, c *cluster) {
	t.Helper()
	for i := range c.primaries {
		pc, err := core.DialMirrorTimeout(c.primAddr[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pst, err := pc.ShardState()
		pc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for f, faddr := range c.folAddr[i] {
			fc, err := core.DialMirrorTimeout(faddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			fst, err := fc.ShardState()
			fc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !fst.Follower {
				t.Fatalf("shard %d replica %d: not marked follower", i, f)
			}
			if fst.Size != pst.Size || fst.Covered != pst.Covered ||
				fst.Tag != pst.Tag || fst.Epoch != pst.Epoch || fst.Docs != pst.Docs {
				t.Fatalf("shard %d replica %d diverged:\n primary %+v\n follower %+v", i, f, pst, fst)
			}
		}
	}
}

// TestDifferentialLargeRound is the distributed differential at a size
// where pruning, ties and segmentation matter: 4 000 documents ingested in
// refresh chunks (so every shard serves several segments), multi-term
// annotation, content and dual-coding queries (one all out of vocabulary,
// so its expansion is empty) at k ∈ {1, 10, 100, 0}, for N ∈ {2, 8}. The
// router, the in-process sharded engine and a single store must agree BUN
// for BUN, ties included — the vocabulary is small, so ties are common.
func TestDifferentialLargeRound(t *testing.T) {
	// The full build clusters its chunk (the expensive step), so it is
	// kept small; every refresh only assigns its delta to the clusters.
	const docs, first, chunk = 4000, 400, 600
	items := corpus.Generate(corpus.Config{N: docs, W: 16, H: 16, Seed: 5, AnnotateRate: 0.8})
	opts := testIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 3

	var vocab []string
	for class := range media.Classes {
		vocab = append(vocab, corpus.ClassWords(class)...)
	}
	rng := rand.New(rand.NewSource(17))
	var queries []string
	for i := 0; i < 8; i++ {
		words := make([]string, 3+rng.Intn(4))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		queries = append(queries, strings.Join(words, " "))
	}
	queries = append(queries, "zeppelin quux")

	// publish grows every engine chunk by chunk: a full build over the
	// first chunk, an incremental refresh per later one.
	publish := func(r core.Retriever, add func(batch []*corpus.Item)) {
		add(items[:first])
		if err := r.BuildContentIndex(opts); err != nil {
			t.Fatal(err)
		}
		for lo := first; lo < docs; lo += chunk {
			add(items[lo : lo+chunk])
			if _, err := r.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	addTo := func(r core.Retriever) func([]*corpus.Item) {
		return func(batch []*corpus.Item) {
			for _, it := range batch {
				if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	single, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	publish(single, addTo(single))

	for _, n := range []int{2, 8} {
		sharded, err := core.NewSharded(n)
		if err != nil {
			t.Fatal(err)
		}
		publish(sharded, addTo(sharded))
		multiSeg := false
		for _, si := range sharded.Segments() {
			multiSeg = multiSeg || len(si.Segs) > 1
		}
		if !multiSeg {
			t.Fatalf("N%d: no shard serves more than one segment; the round does not exercise multi-segment scans", n)
		}
		c := startCluster(t, n, 1)
		publish(c.router, c.ingest)

		contentRuns := 0
		for _, q := range queries {
			words := single.ExpandQuery(q, 6)
			for _, k := range []int{1, 10, 100, 0} {
				label := fmt.Sprintf("N%d/%q/k=%d", n, q, k)
				want, err1 := hitsOf(single, core.Query{Stmt: core.StmtAnnotation, Text: q, K: k})
				got2, err2 := hitsOf(sharded, core.Query{Stmt: core.StmtAnnotation, Text: q, K: k})
				got3, err3 := hitsOf(c.router, core.Query{Stmt: core.StmtAnnotation, Text: q, K: k})
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("%s ann: errs %v/%v/%v", label, err1, err2, err3)
				}
				sameHits(t, label+"/ann/sharded", want, got2, k)
				sameHits(t, label+"/ann/router", want, got3, k)
				want, err1 = hitsOf(single, core.Query{Stmt: core.StmtDual, Text: q, K: k})
				got2, err2 = hitsOf(sharded, core.Query{Stmt: core.StmtDual, Text: q, K: k})
				got3, err3 = hitsOf(c.router, core.Query{Stmt: core.StmtDual, Text: q, K: k})
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("%s dual: errs %v/%v/%v", label, err1, err2, err3)
				}
				sameHits(t, label+"/dual/sharded", want, got2, k)
				sameHits(t, label+"/dual/router", want, got3, k)
				if len(words) == 0 {
					continue
				}
				want, err1 = hitsOf(single, core.Query{Stmt: core.StmtContent, Terms: words, K: k})
				got2, err2 = hitsOf(sharded, core.Query{Stmt: core.StmtContent, Terms: words, K: k})
				got3, err3 = hitsOf(c.router, core.Query{Stmt: core.StmtContent, Terms: words, K: k})
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("%s content: errs %v/%v/%v", label, err1, err2, err3)
				}
				sameHits(t, label+"/content/sharded", want, got2, k)
				sameHits(t, label+"/content/router", want, got3, k)
				contentRuns++
			}
		}
		if contentRuns == 0 {
			t.Fatalf("N%d: no query expanded to cluster words; content retrieval went untested", n)
		}
	}
}
