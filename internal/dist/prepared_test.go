package dist

import (
	"fmt"
	"testing"

	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/ir"
	"mirror/internal/moa"
)

// TestDistributedPreparedEqualsFresh: behind the router every shard leg
// runs on a shard member's epoch engine, i.e. on cached plans after the
// epoch's first query. Across a build and a refresh (one more segment
// per member), every routed answer — asked twice, so the repeat is served by warm plans on both members — must
// equal, ties included, what a from-scratch plan computes over a single
// store holding the same documents.
func TestDistributedPreparedEqualsFresh(t *testing.T) {
	items := testItems(30)
	opts := testIndexOptions()
	single, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 2, 1)

	at := 0
	ingest := func(n int) {
		for _, it := range items[at : at+n] {
			if err := single.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
		c.ingest(items[at : at+n])
		at += n
	}
	// freshHits ranks with a plan compiled from scratch over the single
	// store's database (a new engine has an empty plan cache).
	freshHits := func(text string, k int) []core.Hit {
		t.Helper()
		res, err := moa.NewEngine(single.DB).QueryTopK(annQuerySrc, ir.QueryParams(core.AnalyzeQuery(text)), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ranked {
			res.SortByScoreDesc()
		}
		hits := make([]core.Hit, len(res.Rows))
		for i, row := range res.Rows {
			hits[i] = core.Hit{OID: row.OID, URL: items[row.OID].URL, Score: row.Value.(float64)}
		}
		return hits
	}
	check := func(phase string) {
		t.Helper()
		var planHits uint64
		for class := 0; class < 6; class++ {
			term := corpus.CanonicalTerm(class)
			for _, k := range []int{5, 0} {
				want := freshHits(term, k)
				for pass := 0; pass < 2; pass++ {
					got, err := c.router.QueryAnnotations(term, k)
					if err != nil {
						t.Fatalf("%s %q k=%d: %v", phase, term, k, err)
					}
					sameHits(t, fmt.Sprintf("%s/%s pass %d", phase, term, pass), want, got, k)
				}
			}
		}
		for i, m := range c.primaries {
			st := m.PostingsStats()
			if st.PlanHits == 0 || st.PlanMisses == 0 || st.PlanMisses > 4 {
				t.Fatalf("%s: shard %d plan cache saw %d hits, %d misses", phase, i, st.PlanHits, st.PlanMisses)
			}
			planHits += st.PlanHits
		}
		if planHits < 20 {
			t.Fatalf("%s: only %d routed legs ran on a cached plan", phase, planHits)
		}
	}

	ingest(18)
	if err := single.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := c.router.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	check("build")

	refresh := func() {
		t.Helper()
		if _, err := single.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.router.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(4)
	refresh()
	check("refresh")
}
