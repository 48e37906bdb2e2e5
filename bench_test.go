package mirror

// The benchmark harness regenerates the experiment suite of EXPERIMENTS.md.
// The paper (a demo paper) has one figure and no numeric tables; each bench
// below corresponds to an experiment ID derived from Figure 1 or from a
// performance claim in the text — see DESIGN.md §4 for the mapping.
//
// Run: go test -bench=. -benchmem .

import (
	"fmt"
	"sync"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/daemon"
	"mirror/internal/dict"
	"mirror/internal/ir"
	"mirror/internal/mediaserver"
	"mirror/internal/moa"
)

// ---- shared fixtures (built once, reused across benches) ----

var (
	textDBMu sync.Mutex
	textDBs  = map[int]*moa.Database{}

	demoOnce sync.Once
	demoM    *core.Mirror
	demoErr  error
)

// textDB builds (or returns) a text collection of n synthetic documents
// indexed under CONTREP.
func textDB(b testing.TB, n int) *moa.Database {
	b.Helper()
	textDBMu.Lock()
	defer textDBMu.Unlock()
	if db, ok := textDBs[n]; ok {
		return db
	}
	db := moa.NewDatabase()
	err := db.DefineFromSource(`
		define Docs as SET<TUPLE<
			Atomic<URL>: source,
			CONTREP<Text>: body
		>>;`)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.TextCollection(corpus.DefaultTextConfig(n))
	for i, d := range docs {
		if _, err := db.Insert("Docs", map[string]any{
			"source": fmt.Sprintf("doc://%d", i), "body": d,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Finalize("Docs"); err != nil {
		b.Fatal(err)
	}
	textDBs[n] = db
	return db
}

const docsRankQuery = `
	map[sum(THIS)](
		map[getBL(THIS.body, query, stats)]( Docs ));`

// demoMirror builds the Section 5 demo database once.
func demoMirror(b *testing.B) *core.Mirror {
	b.Helper()
	demoOnce.Do(func() {
		items := corpus.Generate(corpus.Config{N: 36, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
		m, err := core.New()
		if err != nil {
			demoErr = err
			return
		}
		for _, it := range items {
			if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				demoErr = err
				return
			}
		}
		opts := core.DefaultIndexOptions()
		opts.Features = []string{"rgb_coarse", "gabor"}
		opts.KMax = 6
		demoErr = m.BuildContentIndex(opts)
		demoM = m
	})
	if demoErr != nil {
		b.Fatal(demoErr)
	}
	return demoM
}

// ---- E1: Figure 1, the distributed architecture ----

// BenchmarkE1_Figure1Pipeline measures one full Figure-1 round trip:
// dictionary + media server + daemons up, robot crawl, distributed
// extraction, one client query over the wire, everything down.
func BenchmarkE1_Figure1Pipeline(b *testing.B) {
	items := corpus.Generate(corpus.Config{N: 6, W: 32, H: 32, Seed: 2, AnnotateRate: 1})
	for i := 0; i < b.N; i++ {
		dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		mediaURL, stopMedia, err := mediaserver.Start(items)
		if err != nil {
			b.Fatal(err)
		}
		handles, err := daemon.StartDemoDaemons(dictAddr)
		if err != nil {
			b.Fatal(err)
		}
		crawled, err := mediaserver.Crawl(mediaURL)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.New()
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range crawled {
			img, err := mediaserver.DecodeItemImage(it)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.AddImage(it.URL, it.Annotation, img); err != nil {
				b.Fatal(err)
			}
		}
		opts := core.DefaultIndexOptions()
		opts.Features = []string{"rgb_coarse"}
		opts.KMax = 4
		if err := m.BuildContentIndexDistributed(opts, dictAddr); err != nil {
			b.Fatal(err)
		}
		_, stopDBMS, err := m.Serve("127.0.0.1:0", dictAddr)
		if err != nil {
			b.Fatal(err)
		}
		client, err := core.DiscoverMirror(dictAddr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.TextQuery("ocean", 3, false); err != nil {
			b.Fatal(err)
		}
		client.Close()
		stopDBMS()
		for _, h := range handles {
			h.Stop()
		}
		stopMedia()
		stopDict()
	}
}

// ---- E2: the Section 3 ranking query ----

// BenchmarkE2_AnnotatedRanking measures the paper's verbatim ranking query
// (compiled once, executed per iteration) over a 4k-document collection.
func BenchmarkE2_AnnotatedRanking(b *testing.B) {
	db := textDB(b, 4000)
	eng := moa.NewEngine(db)
	params := ir.QueryParams(corpus.QueryTerms(4))
	c, err := eng.Compile(docsRankQuery, params)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: the Section 5 demo pipeline ----

// BenchmarkE3_DemoPipeline measures the in-process extraction pipeline
// (segmentation, colour+texture daemons, AutoClass, CONTREP, thesaurus).
func BenchmarkE3_DemoPipeline(b *testing.B) {
	items := corpus.Generate(corpus.Config{N: 12, W: 48, H: 48, Seed: 4, AnnotateRate: 1})
	for i := 0; i < b.N; i++ {
		m, err := core.New()
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				b.Fatal(err)
			}
		}
		opts := core.DefaultIndexOptions()
		opts.Features = []string{"rgb_coarse", "gabor"}
		opts.KMax = 5
		if err := m.BuildContentIndex(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: flattening vs tuple-at-a-time ([BWK98]) ----

// BenchmarkE4_FlattenedVsTupleAtATime runs the same Moa ranking query
// through the flattened (set-at-a-time BAT) executor and through the
// tuple-at-a-time interpreter; the ratio at growing collection sizes is
// the paper's core performance argument.
func BenchmarkE4_FlattenedVsTupleAtATime(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		db := textDB(b, n)
		params := ir.QueryParams(corpus.QueryTerms(4))

		b.Run(fmt.Sprintf("flattened/n=%d", n), func(b *testing.B) {
			eng := moa.NewEngine(db)
			c, err := eng.Compile(docsRankQuery, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tuple-at-a-time/n=%d", n), func(b *testing.B) {
			ip := moa.NewInterp(db, params)
			if _, err := ip.Query(docsRankQuery); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ip.Query(docsRankQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_InsertBatchVsTuple is E4's write row: the same n analysed
// documents indexed into an empty CONTREP collection as one set-at-a-time
// InsertBatch (typed columns, one bulk append per BAT) and as n
// tuple-at-a-time Inserts. It reports ns and allocations per document.
func BenchmarkE4_InsertBatchVsTuple(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		urls := make([]string, n)
		terms := make([][]string, n)
		for i, d := range corpus.TextCollection(corpus.DefaultTextConfig(n)) {
			urls[i], terms[i] = fmt.Sprintf("doc://%d", i), ir.Analyze(d)
		}
		run := func(b *testing.B, insert func(db *moa.Database) error) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := moa.NewDatabase()
				if err := db.DefineFromSource(`define Docs as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: body>>;`); err != nil {
					b.Fatal(err)
				}
				if err := insert(db); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/doc")
		}
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			run(b, func(db *moa.Database) error {
				_, err := db.InsertBatch("Docs", map[string]any{"source": urls, "body": terms})
				return err
			})
		})
		b.Run(fmt.Sprintf("tuple-at-a-time/n=%d", n), func(b *testing.B) {
			run(b, func(db *moa.Database) error {
				for i := range urls {
					if _, err := db.Insert("Docs", map[string]any{"source": urls[i], "body": terms[i]}); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// ---- E5: design for scalability ----

// BenchmarkE5_ScalabilitySweep measures ranked retrieval cost as the
// collection grows 1k→32k documents (fused physical getbl plan).
func BenchmarkE5_ScalabilitySweep(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 32000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := textDB(b, n)
			eng := moa.NewEngine(db)
			c, err := eng.Compile(docsRankQuery, ir.QueryParams(corpus.QueryTerms(4)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_PhysicalGetBL isolates the physical operator (no fill, no
// materialisation): the cost that scales with posting lists, not with the
// collection.
func BenchmarkE5_PhysicalGetBL(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 32000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := textDB(b, n)
			segs, err := ir.Segments(db, "Docs_body")
			if err != nil {
				b.Fatal(err)
			}
			dict, _ := db.BAT("Docs_body_dict")
			dictRev := dict.Reverse()
			var q []bat.OID
			for _, t := range corpus.QueryTerms(4) {
				if v, ok := dictRev.Find(t); ok {
					q = append(q, v.(bat.OID))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				beliefs, counts, err := bat.GetBL(segs, q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bat.SumBeliefs(beliefs, counts, len(q), ir.DefaultBelief); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E6: AutoClass clustering ----

// BenchmarkE6_AutoClass measures Bayesian model selection on the demo's
// colour feature space.
func BenchmarkE6_AutoClass(b *testing.B) {
	m := demoMirror(b)
	_ = m
	// representative synthetic feature data: 200 segments, 11 dims
	items := corpus.Generate(corpus.Config{N: 40, W: 48, H: 48, Seed: 9, AnnotateRate: 1})
	var data [][]float64
	for _, it := range items {
		// one coarse histogram per ground-truth region
		for _, r := range it.Scene.Regions {
			sub := it.Scene.Img.SubImage(r.X0, r.Y0, r.X1, r.Y1)
			data = append(data, rgbCoarse(sub))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fitSelect(data, 2, 8, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: algebraic optimisation ablation ----

// BenchmarkE7_OptimizerAblation runs the Section 3 query with (a) all
// rewrites, (b) aggregate fusion off (belief sets materialised), (c) CSE
// off. The fused/unfused gap is the value of the paper's "new
// probabilistic operators at the physical level".
func BenchmarkE7_OptimizerAblation(b *testing.B) {
	db := textDB(b, 4000)
	params := ir.QueryParams(corpus.QueryTerms(4))
	variants := []struct {
		name string
		opts moa.Options
	}{
		{"optimized", moa.DefaultOptions},
		{"no-agg-fusion", moa.Options{FuseMaps: true, FuseSelects: true, CSE: true}},
		{"no-cse", moa.Options{FuseMaps: true, FuseAggregates: true, FuseSelects: true}},
		{"no-rewrites", moa.NoOptimize},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng := &moa.Engine{DB: db, Opts: v.opts}
			c, err := eng.Compile(docsRankQuery, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: thesaurus expansion (dual coding) ----

// BenchmarkE8_ThesaurusExpansion measures query formulation through the
// thesaurus plus the content retrieval it enables.
func BenchmarkE8_ThesaurusExpansion(b *testing.B) {
	m := demoMirror(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters := m.ExpandQuery("ocean", 5)
		if len(clusters) == 0 {
			b.Fatal("no expansion")
		}
		if _, err := m.QueryContent(clusters, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9: relevance feedback iteration ----

// BenchmarkE9_FeedbackIteration measures one run+judge+update cycle of the
// demo's interaction loop.
func BenchmarkE9_FeedbackIteration(b *testing.B) {
	m := demoMirror(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := m.NewSession("ocean")
		if err != nil {
			b.Fatal(err)
		}
		hits, _, err := m.Run(sess.Query(10))
		if err != nil {
			b.Fatal(err)
		}
		var rel, nonrel []bat.OID
		for j, h := range hits {
			if j%2 == 0 {
				rel = append(rel, h.OID)
			} else {
				nonrel = append(nonrel, h.OID)
			}
		}
		if sess, err = m.SessionFeedback(sess, rel, nonrel); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Run(sess.Query(10)); err != nil {
			b.Fatal(err)
		}
	}
}
