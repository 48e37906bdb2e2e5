package mirror

// Experiment tests: the measured counterparts of EXPERIMENTS.md. Each test
// checks the SHAPE the paper's claims predict (who wins, does quality
// improve) and logs the measured values recorded in EXPERIMENTS.md.
// All fixtures are seeded; results are deterministic.

import (
	"fmt"
	"testing"
	"time"

	"mirror/internal/bat"
	"mirror/internal/cluster"
	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/daemon"
	"mirror/internal/dict"
	"mirror/internal/feature"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/mediaserver"
	"mirror/internal/moa"
)

// ---- helpers shared with bench_test.go ----

// rgbCoarse extracts the coarse colour histogram (bench helper).
func rgbCoarse(img *media.Image) []float64 {
	return feature.NewRGBHistogram("rgb_coarse", 2).Extract(img)
}

// fitSelect standardises and model-selects (bench helper).
func fitSelect(data [][]float64, kmin, kmax int, seed int64) (*cluster.Model, []int, error) {
	std, _, _ := cluster.Standardize(data)
	m, err := cluster.Select(std, kmin, kmax, seed)
	if err != nil {
		return nil, nil, err
	}
	return m, m.AssignAll(std), nil
}

// buildTextDB builds a CONTREP-indexed synthetic text collection.
func buildTextDB(t testing.TB, n int) *moa.Database {
	t.Helper()
	db := moa.NewDatabase()
	err := db.DefineFromSource(`
		define Docs as SET<TUPLE<
			Atomic<URL>: source,
			CONTREP<Text>: body
		>>;`)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range corpus.TextCollection(corpus.DefaultTextConfig(n)) {
		if _, err := db.Insert("Docs", map[string]any{
			"source": fmt.Sprintf("doc://%d", i), "body": d,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Finalize("Docs"); err != nil {
		t.Fatal(err)
	}
	return db
}

// ---- E1: Figure 1 ----

// TestFigure1Architecture reproduces Figure 1 over real sockets: every
// party is a separate server; the schema flows through the dictionary; a
// client discovers and queries the DBMS.
func TestFigure1Architecture(t *testing.T) {
	dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDict()

	items := corpus.Generate(corpus.Config{N: 10, W: 32, H: 32, Seed: 6, AnnotateRate: 1})
	mediaURL, stopMedia, err := mediaserver.Start(items)
	if err != nil {
		t.Fatal(err)
	}
	defer stopMedia()

	handles, err := daemon.StartDemoDaemons(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, h := range handles {
			h.Stop()
		}
	}()

	crawled, err := mediaserver.Crawl(mediaURL)
	if err != nil {
		t.Fatal(err)
	}
	if len(crawled) != 10 {
		t.Fatalf("robot crawled %d items", len(crawled))
	}
	m, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range crawled {
		img, err := mediaserver.DecodeItemImage(it)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddImage(it.URL, it.Annotation, img); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4
	if err := m.BuildContentIndexDistributed(opts, dictAddr); err != nil {
		t.Fatal(err)
	}
	_, stopDBMS, err := m.Serve("127.0.0.1:0", dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopDBMS()

	// the client side: everything discovered through the dictionary
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := dc.GetSchema()
	dc.Close()
	if err != nil || schema == "" {
		t.Fatalf("published schema: %q, %v", schema, err)
	}
	client, err := core.DiscoverMirror(dictAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	hits, err := client.TextQuery("ocean", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("client got no hits")
	}
	t.Logf("E1: Figure 1 reproduced: dictionary + media server + %d daemons + DBMS + client, top hit %s (%.3f)",
		len(handles), hits[0].URL, hits[0].Score)
}

// ---- E4: flattening beats tuple-at-a-time, and the gap grows ----

func TestE4FlattenedBeatsInterpreted(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	params := ir.QueryParams(corpus.QueryTerms(4))
	const q = `
		map[sum(THIS)](
			map[getBL(THIS.body, query, stats)]( Docs ));`
	var prevRatio float64
	for _, n := range []int{500, 4000} {
		db := buildTextDB(t, n)
		eng := moa.NewEngine(db)
		c, err := eng.Compile(q, params)
		if err != nil {
			t.Fatal(err)
		}
		// time the flattened path before the interpreter materialises the
		// collection into the Go heap (its caches would distort GC cost)
		reps := 5
		if _, err := c.Run(); err != nil { // warm (hash indexes)
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}
		flat := time.Since(start)

		ip := moa.NewInterp(db, params)
		if _, err := ip.Query(q); err != nil { // warm (collection cache)
			t.Fatal(err)
		}
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := ip.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		interp := time.Since(start)
		ratio := float64(interp) / float64(flat)
		t.Logf("E4: n=%d flattened=%v interpreted=%v speedup=%.1fx", n, flat/time.Duration(reps), interp/time.Duration(reps), ratio)
		if ratio < 1 {
			t.Errorf("E4: flattened execution slower than tuple-at-a-time at n=%d (%.2fx)", n, ratio)
		}
		prevRatio = ratio
	}
	_ = prevRatio
}

// ---- E6: AutoClass recovers the latent classes ----

func TestE6ClusterRecovery(t *testing.T) {
	// one feature vector per ground-truth region → the clustering must
	// rediscover the latent palette
	items := corpus.Generate(corpus.Config{N: 60, W: 48, H: 48, Seed: 13, AnnotateRate: 1})
	var data [][]float64
	var truth []int
	for _, it := range items {
		for _, r := range it.Scene.Regions {
			sub := it.Scene.Img.SubImage(r.X0, r.Y0, r.X1, r.Y1)
			data = append(data, rgbCoarse(sub))
			truth = append(truth, r.Class)
		}
	}
	model, assign, err := fitSelect(data, 4, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	ari := cluster.AdjustedRandIndex(truth, assign)
	t.Logf("E6: %d regions, %d latent classes, AutoClass chose K=%d, ARI=%.3f",
		len(data), len(media.Classes), model.K, ari)
	if ari < 0.5 {
		t.Errorf("E6: adjusted Rand index %.3f < 0.5 — clustering failed to recover classes", ari)
	}
	if model.K < 5 || model.K > 14 {
		t.Errorf("E6: selected K=%d implausible for %d latent classes", model.K, len(media.Classes))
	}
}

// ---- E7: the fusion rewrite changes the plan, not the answer ----

func TestE7FusionPreservesSemantics(t *testing.T) {
	db := buildTextDB(t, 300)
	params := ir.QueryParams(corpus.QueryTerms(3))
	const q = `
		map[sum(THIS)](
			map[getBL(THIS.body, query, stats)]( Docs ));`
	fused := moa.NewEngine(db)
	unfused := &moa.Engine{DB: db, Opts: moa.Options{FuseMaps: true, FuseSelects: true, CSE: true}}
	r1, err := fused.Query(q, params)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := unfused.Query(q, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for _, row := range r1.Rows {
		other, ok := r2.Find(row.OID)
		if !ok {
			t.Fatalf("doc %d missing from unfused result", row.OID)
		}
		a := row.Value.(float64)
		b := other.Value.(float64)
		if d := a - b; d > 1e-9 || d < -1e-9 {
			t.Fatalf("doc %d: fused %v vs unfused %v", row.OID, a, b)
		}
	}
	t.Logf("E7: fused and unfused plans agree on all %d scores", len(r1.Rows))
}

// ---- E8: dual coding lifts retrieval of unannotated images ----

func TestE8DualCoding(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 60, W: 64, H: 64, Seed: 5, AnnotateRate: 0.6})
	m, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
		t.Fatal(err)
	}
	var mrrText, mrrDual float64
	queries := 0
	for class := 0; class < len(media.Classes); class++ {
		exists := false
		for _, it := range items {
			if it.Annotation == "" && it.HasClass(class) {
				exists = true
				break
			}
		}
		if !exists {
			continue
		}
		cl := class
		rel := func(h core.Hit) bool {
			it := items[h.OID]
			return it.Annotation == "" && it.HasClass(cl)
		}
		term := corpus.CanonicalTerm(class)
		th, err := m.QueryAnnotations(term, 0)
		if err != nil {
			t.Fatal(err)
		}
		dh, _, err := m.Run(core.Query{Stmt: core.StmtDual, Text: term})
		if err != nil {
			t.Fatal(err)
		}
		rr := func(hits []core.Hit) float64 {
			for rank, h := range hits {
				if rel(h) {
					return 1 / float64(rank+1)
				}
			}
			return 0
		}
		mrrText += rr(th)
		mrrDual += rr(dh)
		queries++
	}
	mrrText /= float64(queries)
	mrrDual /= float64(queries)
	t.Logf("E8: %d queries; MRR of first unannotated relevant image: text=%.3f dual=%.3f (lift %.1fx)",
		queries, mrrText, mrrDual, mrrDual/maxF(mrrText, 1e-9))
	if mrrDual <= mrrText {
		t.Errorf("E8: dual coding gave no lift (%.3f vs %.3f)", mrrDual, mrrText)
	}
}

// ---- E9: feedback improves the content ranking ----

func TestE9FeedbackImproves(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 48, W: 48, H: 48, Seed: 17, AnnotateRate: 0.6})
	m, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	// average the feedback trajectory over several class queries
	var p0sum, p2sum float64
	queries := 0
	for class := 0; class < len(media.Classes); class++ {
		term := corpus.CanonicalTerm(class)
		cl := class
		relevant := func(h core.Hit) bool { return items[h.OID].HasClass(cl) }
		unannPrec := func(hits []core.Hit) float64 {
			var un []core.Hit
			for _, h := range hits {
				if items[h.OID].Annotation == "" {
					un = append(un, h)
				}
			}
			return core.PrecisionAtK(un, 5, relevant)
		}
		sess, err := m.NewSession(term)
		if err != nil {
			t.Fatal(err)
		}
		hits0, _, err := m.Run(sess.Query(0))
		if err != nil {
			t.Fatal(err)
		}
		p0 := unannPrec(hits0)
		for round := 0; round < 2; round++ {
			hits, _, err := m.Run(sess.Query(12))
			if err != nil {
				t.Fatal(err)
			}
			var rel, nonrel []core.Hit
			for _, h := range hits {
				if relevant(h) {
					rel = append(rel, h)
				} else {
					nonrel = append(nonrel, h)
				}
			}
			if sess, err = m.SessionFeedback(sess, oids(rel), oids(nonrel)); err != nil {
				t.Fatal(err)
			}
		}
		hits2, _, err := m.Run(sess.Query(0))
		if err != nil {
			t.Fatal(err)
		}
		p2 := unannPrec(hits2)
		p0sum += p0
		p2sum += p2
		queries++
	}
	p0avg := p0sum / float64(queries)
	p2avg := p2sum / float64(queries)
	t.Logf("E9: %d queries; mean precision@5 over unannotated items: before=%.3f after 2 feedback rounds=%.3f",
		queries, p0avg, p2avg)
	if p2avg < p0avg {
		t.Errorf("E9: feedback degraded mean precision (%.3f → %.3f)", p0avg, p2avg)
	}
}

func oids(hits []core.Hit) []bat.OID {
	out := make([]bat.OID, len(hits))
	for i, h := range hits {
		out[i] = h.OID
	}
	return out
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
