package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
	"mirror/internal/feature"
)

// TestParallelPipelineMatchesSerial builds the content index twice — once
// at GOMAXPROCS=1 (one extraction worker and one class-search fit at a
// time, the serial reference) and once at 4 — with all six feature daemons
// and the default class range, and requires the same codebook bit for bit
// and databases that answer identically: neither the extraction fan-out
// nor the concurrent class search may change what gets indexed.
func TestParallelPipelineMatchesSerial(t *testing.T) {
	build := func(procs int) *Mirror {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		items := corpus.Generate(corpus.Config{N: 12, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
		m, err := New()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.BuildContentIndex(DefaultIndexOptions()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ser := build(1)
	par := build(4)
	if len(ser.codebook.Spaces) != len(feature.All()) {
		t.Fatalf("codebook has %d feature spaces, want %d", len(ser.codebook.Spaces), len(feature.All()))
	}
	// encoding/json writes each float64 in the shortest form that parses
	// back to the same bits, so equal JSON means bit-equal codebooks.
	sj, err := json.Marshal(ser.codebook)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par.codebook)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatalf("codebooks diverge:\n%s\n%s", sj, pj)
	}
	for oid := bat.OID(0); oid < 12; oid++ {
		s, p := ser.ContentTerms(oid), par.ContentTerms(oid)
		if fmt.Sprint(s) != fmt.Sprint(p) {
			t.Fatalf("content terms for %d diverge: %v vs %v", oid, s, p)
		}
	}
	for _, q := range []string{"water", "forest", "sunshine"} {
		sh, err := ser.QueryAnnotations(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := par.QueryAnnotations(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(sh) != len(ph) {
			t.Fatalf("%q: %d vs %d hits", q, len(sh), len(ph))
		}
		for i := range sh {
			if sh[i].OID != ph[i].OID || sh[i].Score != ph[i].Score {
				t.Fatalf("%q hit %d: %+v vs %+v", q, i, sh[i], ph[i])
			}
		}
	}
}

// TestConcurrentQueriesOverlap hammers one served Mirror DBMS with many
// clients issuing text, dual-coding, and raw Moa queries at once: each
// query runs on its own goroutine, so concurrency across queries is the
// only concurrency on the read path. Every response must match the
// single-client answer; -race in CI checks that path (shared BATs, lazily
// built hash indexes, the caches) for data races.
func TestConcurrentQueriesOverlap(t *testing.T) {
	m, items := buildDemo(t, 12)
	addr, stop, err := m.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	term := corpus.CanonicalTerm(mostAnnotatedClass(items))
	ref, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantHits, err := ref.TextQuery(term, 5, false)
	if err != nil || len(wantHits) == 0 {
		t.Fatalf("reference hits: %v, %v", wantHits, err)
	}
	wantCount, err := ref.MoaQuery(`count(ImageLibraryInternal);`, nil)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialMirror(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			for it := 0; it < 4; it++ {
				hits, err := c.TextQuery(term, 5, it%2 == 1)
				if err != nil {
					errs[g] = err
					return
				}
				if len(hits) == 0 {
					errs[g] = fmt.Errorf("client %d: no hits", g)
					return
				}
				if it%2 == 0 && (len(hits) != len(wantHits) || hits[0].OID != wantHits[0].OID) {
					errs[g] = fmt.Errorf("client %d: hits diverged: %v vs %v", g, hits, wantHits)
					return
				}
				reply, err := c.MoaQuery(`count(ImageLibraryInternal);`, nil)
				if err != nil {
					errs[g] = err
					return
				}
				if reply.Scalar != wantCount.Scalar {
					errs[g] = fmt.Errorf("client %d: count %q want %q", g, reply.Scalar, wantCount.Scalar)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
