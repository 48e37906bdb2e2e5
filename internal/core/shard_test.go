package core

import (
	"fmt"
	"reflect"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
)

// The sharded differential suite: a ShardedEngine over any shard count
// must answer every retrieval exactly like one Mirror holding the whole
// collection — same documents, same scores, same tie order (ascending
// global OID), BUN for BUN. This is the invariant that makes sharding an
// implementation detail instead of a semantics change.

// buildShardedDemo ingests the same deterministic collection as buildDemo
// into an n-shard engine and runs the global index build.
func buildShardedDemo(t *testing.T, n, shards int) (*ShardedEngine, []*corpus.Item) {
	t.Helper()
	items := corpus.Generate(corpus.Config{N: n, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
	e, err := NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := e.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 6
	if err := e.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	return e, items
}

// diffHits asserts two rankings are identical hit-for-hit.
func diffHits(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].OID != got[i].OID || want[i].Score != got[i].Score || want[i].URL != got[i].URL {
			t.Fatalf("%s: rank %d: single (%d, %q, %v) vs sharded (%d, %q, %v)",
				label, i, want[i].OID, want[i].URL, want[i].Score, got[i].OID, got[i].URL, got[i].Score)
		}
	}
}

// demoQueries mixes in-vocabulary, multi-term, and out-of-vocabulary text
// so the differential covers matches, partial matches, and default-filled
// tie runs (the case where tie-breaks actually bite).
func demoQueries(items []*corpus.Item) []string {
	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)
	return []string{
		term,
		term + " scene",
		"xylophonequark",         // OOV: every document ties at the default fill
		term + " zz unknownword", // partial match + OOV
	}
}

func TestShardedEqualsSingleStore(t *testing.T) {
	const n = 24
	single, items := buildDemo(t, n)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, _ := buildShardedDemo(t, n, shards)
			for _, q := range demoQueries(items) {
				for _, k := range []int{0, 3, 10, n + 5} {
					want, err := single.QueryAnnotations(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.QueryAnnotations(q, k)
					if err != nil {
						t.Fatal(err)
					}
					diffHits(t, fmt.Sprintf("rank %q k=%d", q, k), want, got)
				}
				want, err := rank(single, Query{Stmt: StmtDual, Text: q, K: 10})
				if err != nil {
					t.Fatal(err)
				}
				got, err := rank(e, Query{Stmt: StmtDual, Text: q, K: 10})
				if err != nil {
					t.Fatal(err)
				}
				diffHits(t, fmt.Sprintf("dual %q", q), want, got)
			}
			// content retrieval through thesaurus expansion
			words := single.ExpandQuery(demoQueries(items)[0], 5)
			gotWords := e.ExpandQuery(demoQueries(items)[0], 5)
			if fmt.Sprint(words) != fmt.Sprint(gotWords) {
				t.Fatalf("thesaurus expansion: %v vs %v", words, gotWords)
			}
			if len(words) > 0 {
				want, err := single.QueryContent(words, 7)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.QueryContent(words, 7)
				if err != nil {
					t.Fatal(err)
				}
				diffHits(t, "content", want, got)
			}
		})
	}
}

// TestShardedMoaQueryEqualsSingleStore pins the raw Moa surface: ranked
// top-k comes back identical (the pruned path with the shared threshold),
// and the full un-cut result concatenates in global OID order.
func TestShardedMoaQueryEqualsSingleStore(t *testing.T) {
	const n = 24
	single, items := buildDemo(t, n)
	e, _ := buildShardedDemo(t, n, 2)
	terms := []string{corpus.CanonicalTerm(mostAnnotatedClass(items)), "scene"}

	const k = 5
	want, err := adhoc(single, annotationQuery, terms, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := adhoc(e, annotationQuery, terms, k)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Ranked || !got.Ranked {
		t.Fatalf("expected both ranked (single %v, sharded %v)", want.Ranked, got.Ranked)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("rows: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].OID != got.Rows[i].OID || want.Rows[i].Value != got.Rows[i].Value {
			t.Fatalf("row %d: %+v vs %+v", i, want.Rows[i], got.Rows[i])
		}
	}

	// full result: same rows, ascending global OIDs
	wantFull, err := adhoc(single, annotationQuery, terms, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotFull, err := adhoc(e, annotationQuery, terms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantFull.Rows) != len(gotFull.Rows) {
		t.Fatalf("full rows: %d vs %d", len(wantFull.Rows), len(gotFull.Rows))
	}
	for i := range gotFull.Rows {
		if gotFull.Rows[i].OID != bat.OID(i) {
			t.Fatalf("full row %d has OID %d, want dense ascending", i, gotFull.Rows[i].OID)
		}
		if wantFull.Rows[i].Value != gotFull.Rows[i].Value {
			t.Fatalf("full row %d: %v vs %v", i, wantFull.Rows[i].Value, gotFull.Rows[i].Value)
		}
	}

	// scalar queries cannot be merged and must say so
	if _, err := adhoc(e, "count(ImageLibrary);", nil, 0); err == nil {
		t.Fatal("scalar query across shards should be refused")
	}
}

// TestShardedMoaNativeValues: Moa rows whose values are not float64 — a
// string attribute, a tuple — must come back from the in-process engine
// exactly as a single store returns them, native values included (the
// wire's %v rendering belongs to the networked transport only), at k = 0
// and k > 0, both on an indexed engine and on the pre-index fallback over
// the live shard databases.
func TestShardedMoaNativeValues(t *testing.T) {
	urls, anns := refreshCorpus(30, 9)
	terms := []string{"harbor", "gull"}
	for _, n := range []int{2, 8} {
		for _, indexed := range []bool{false, true} {
			single, err := New()
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := NewSharded(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range urls {
				for _, r := range []Retriever{single, sharded} {
					if err := r.AddImage(urls[i], anns[i], nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			queries := []string{`map[THIS.source](ImageLibrary);`}
			if indexed {
				if err := single.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
					t.Fatal(err)
				}
				if err := sharded.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
					t.Fatal(err)
				}
				queries = append(queries,
					`map[TUPLE<u: THIS.source, s: sum(getBL(THIS.annotation, query, stats))>](ImageLibraryInternal);`)
			}
			for _, src := range queries {
				for _, k := range []int{0, 4} {
					label := fmt.Sprintf("N=%d indexed=%v k=%d %s", n, indexed, k, src)
					want, err := adhoc(single, src, terms, k)
					if err != nil {
						t.Fatalf("%s: single: %v", label, err)
					}
					got, err := adhoc(sharded, src, terms, k)
					if err != nil {
						t.Fatalf("%s: sharded: %v", label, err)
					}
					wantRows := want.Rows
					if len(wantRows) == 0 {
						t.Fatalf("%s: empty reference result", label)
					}
					if _, isF := wantRows[0].Value.(float64); isF {
						t.Fatalf("%s: reference rows are float64 valued; the query does not exercise native values", label)
					}
					if !reflect.DeepEqual(wantRows, got.Rows) {
						t.Fatalf("%s:\n want %v\n got  %v", label, wantRows, got.Rows)
					}
				}
			}
		}
	}
}

// TestShardedEmptyShards: more shards than documents leaves some shards
// empty; they must index, answer, and merge as zero-hit participants.
func TestShardedEmptyShards(t *testing.T) {
	const n = 5
	single, items := buildDemo(t, n)
	e, _ := buildShardedDemo(t, n, 8)
	empty := 0
	for _, info := range e.ShardInfos() {
		if info.Docs == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected empty shards with %d docs over 8 shards (got counts %+v)", n, e.ShardInfos())
	}
	for _, q := range demoQueries(items) {
		want, err := single.QueryAnnotations(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryAnnotations(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		diffHits(t, "empty-shards "+q, want, got)
	}
}

// TestShardedSkew forces every document onto one shard (URLs chosen by
// the routing hash itself) and checks the degenerate placement still
// matches the single store.
func TestShardedSkew(t *testing.T) {
	const n = 10
	items := corpus.Generate(corpus.Config{N: n, W: 48, H: 48, Seed: 11, AnnotateRate: 1})
	probe, err := NewSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	// rename items so all land on shard 0 of 4
	renamed := make([]string, n)
	for i := range items {
		for suffix := 0; ; suffix++ {
			u := fmt.Sprintf("%s?v=%d", items[i].URL, suffix)
			if probe.shardFor(u) == 0 {
				renamed[i] = u
				break
			}
		}
	}
	single, errS := New()
	e, errE := NewSharded(4)
	if errS != nil || errE != nil {
		t.Fatal(errS, errE)
	}
	for i, it := range items {
		if err := single.AddImage(renamed[i], it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
		if err := e.AddImage(renamed[i], it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4
	if err := single.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	infos := e.ShardInfos()
	if infos[0].Docs != n {
		t.Fatalf("skew setup failed: shard 0 holds %d of %d docs (%+v)", infos[0].Docs, n, infos)
	}
	class := mostAnnotatedClass(items)
	for _, q := range []string{corpus.CanonicalTerm(class), "nosuchwordatall"} {
		want, err := single.QueryAnnotations(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryAnnotations(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		diffHits(t, "skew "+q, want, got)
	}
}

// TestShardedSessionFeedback: a feedback session over the sharded engine
// adapts the shared thesaurus exactly like a single store's session.
func TestShardedSessionFeedback(t *testing.T) {
	const n = 24
	single, items := buildDemo(t, n)
	e, _ := buildShardedDemo(t, n, 2)
	q := corpus.CanonicalTerm(mostAnnotatedClass(items))

	ss, err := single.NewSession(q)
	if err != nil {
		t.Fatal(err)
	}
	se, err := e.NewSession(q)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := rank(single, ss.Query(8))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rank(e, se.Query(8))
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "session round 0", h1, h2)
	if len(h1) < 3 {
		t.Fatalf("thin session result: %d hits", len(h1))
	}
	rel := []bat.OID{h1[0].OID}
	non := []bat.OID{h1[len(h1)-1].OID}
	if ss, err = single.SessionFeedback(ss, rel, non); err != nil {
		t.Fatal(err)
	}
	if se, err = e.SessionFeedback(se, rel, non); err != nil {
		t.Fatal(err)
	}
	h1, err = rank(single, ss.Query(8))
	if err != nil {
		t.Fatal(err)
	}
	h2, err = rank(e, se.Query(8))
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "session round 1", h1, h2)
}

// TestShardedServeTransparent: the RPC service over a sharded engine
// speaks the exact protocol of a single store — same replies, same
// rankings — so clients need not know the topology.
func TestShardedServeTransparent(t *testing.T) {
	const n = 24
	single, items := buildDemo(t, n)
	e, _ := buildShardedDemo(t, n, 4)
	term := corpus.CanonicalTerm(mostAnnotatedClass(items))

	addrS, stopS, err := Serve(single, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stopS()
	addrE, stopE, err := e.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stopE()

	cs, err := DialMirror(addrS)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	ce, err := DialMirror(addrE)
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()

	for _, dual := range []bool{false, true} {
		want, err := cs.TextQuery(term, 5, dual)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ce.TextQuery(term, 5, dual)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("dual=%v: %d vs %d hits", dual, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("dual=%v hit %d: %+v vs %+v", dual, i, want[i], got[i])
			}
		}
	}

	wantMoa, err := cs.MoaQueryTopK(annotationQuery, []string{term}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotMoa, err := ce.MoaQueryTopK(annotationQuery, []string{term}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantMoa.OIDs) != fmt.Sprint(gotMoa.OIDs) || fmt.Sprint(wantMoa.Values) != fmt.Sprint(gotMoa.Values) {
		t.Fatalf("MoaQuery diverged:\nsingle  %v %v\nsharded %v %v", wantMoa.OIDs, wantMoa.Values, gotMoa.OIDs, gotMoa.Values)
	}

	wantSchema, err := cs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, err := ce.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if wantSchema != gotSchema {
		t.Fatal("schemas diverged")
	}
}
