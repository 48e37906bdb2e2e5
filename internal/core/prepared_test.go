package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/moa"
)

// Prepared-plan differential tests: every answer that comes through an
// epoch engine's plan cache (compiled on the epoch's first call, bound per
// call afterwards) must equal, BUN-for-BUN and ties included, the answer
// of a plan compiled from scratch against the same snapshot — across
// publishes that change what the lowering emits (segment count 1 → n →
// merged), on single stores and on sharded engines.

// freshTopK answers like ep.queryTopK with a plan compiled from scratch: a
// new engine over the epoch's snapshot has an empty plan cache.
func freshTopK(t *testing.T, ep *IndexEpoch, src string, params map[string]moa.Param, k int) *moa.Result {
	t.Helper()
	eng := moa.NewEngine(ep.DB)
	eng.Opts = ep.Eng.Opts
	res, err := eng.QueryTopK(src, params, k, nil)
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	if hits, misses := eng.PlanCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("reference engine was not from scratch: %d hits, %d misses", hits, misses)
	}
	return res
}

var preparedTexts = []string{"harbor gull", "tide", "kelp foam buoy", "lantern mist salt", "gull gull pier", "nosuchword"}
var preparedClusters = [][]string{{"stub_a_0", "stub_b_2"}, {"stub_a_1", "stub_a_3", "stub_b_0"}}

// assertPreparedEqualsFresh drives both ranking expressions at several
// cuts through the epoch's cached plans, twice each (the repeat is always
// a hit), against from-scratch plans.
func assertPreparedEqualsFresh(t *testing.T, label string, ep *IndexEpoch) {
	t.Helper()
	type q struct {
		src    string
		params map[string]moa.Param
	}
	var qs []q
	for _, text := range preparedTexts {
		qs = append(qs, q{annotationQuery, ir.QueryParams(ir.Analyze(text))})
	}
	for _, cw := range preparedClusters {
		qs = append(qs, q{contentQuery, ir.QueryParams(cw)})
	}
	for _, k := range []int{0, 1, 3, 10} {
		for _, qq := range qs {
			want := freshTopK(t, ep, qq.src, qq.params, k)
			for pass := 0; pass < 2; pass++ {
				got, err := ep.Eng.QueryTopK(qq.src, qq.params, k, nil)
				if err != nil {
					t.Fatalf("%s k=%d: %v", label, k, err)
				}
				if got.Ranked != want.Ranked || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s k=%d pass %d params %v: cached plan diverges from fresh\n got  %v\n want %v",
						label, k, pass, qq.params["query"].V, got.Rows, want.Rows)
				}
			}
		}
	}
	hits, misses := ep.Eng.PlanCacheStats()
	// Two sources × four cuts compile once each; everything else hits.
	if misses != 8 || hits == 0 {
		t.Fatalf("%s: plan cache saw %d hits, %d misses; want 8 misses", label, hits, misses)
	}
}

// TestPreparedEqualsFreshSingleStore walks one store through every epoch
// shape the lowering distinguishes and checks each published epoch.
func TestPreparedEqualsFreshSingleStore(t *testing.T) {
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(int64(500 + round)))
		urls, anns := refreshCorpus(120, int64(40+round))
		m, err := New()
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		add := func(n int) {
			for i := 0; i < n && at < len(urls); i, at = i+1, at+1 {
				if err := m.AddImage(urls[at], anns[at], nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		var seen []*moa.Engine
		check := func(phase string) {
			t.Helper()
			ep := m.currentEpoch()
			for _, old := range seen {
				if old == ep.Eng {
					t.Fatalf("%s: publish reused the previous epoch's engine (and its plan cache)", phase)
				}
			}
			seen = append(seen, ep.Eng)
			label := fmt.Sprintf("round %d %s (docs=%d segs=%d)", round, phase, ep.Docs, m.maxSegments())
			assertPreparedEqualsFresh(t, label, ep)
		}

		add(10 + rng.Intn(10))
		if err := m.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}
		if m.maxSegments() != 1 {
			t.Fatalf("batch build left %d segments", m.maxSegments())
		}
		check("one segment")

		// Delta refreshes grow the segment list until the compaction
		// policy merges; both shapes are checked.
		grew, merged := false, false
		for i := 0; i < 12 && !merged; i++ {
			add(1 + rng.Intn(4))
			st := refreshStub(t, m)
			grew = grew || m.maxSegments() > 1
			merged = st.Merges > 0
			check(fmt.Sprintf("refresh %d", i))
		}
		if !grew || !merged {
			t.Fatalf("round %d: segment list never grew (%v) or never merged (%v)", round, grew, merged)
		}
	}
}

// TestPreparedEqualsFreshSharded: the same walk on the scatter-gather
// engine for N ∈ {1, 2, 8} — every shard epoch's cached plans against
// from-scratch plans on that shard, and the gathered answer stable across
// repeats.
func TestPreparedEqualsFreshSharded(t *testing.T) {
	urls, anns := refreshCorpus(90, 11)
	for _, shards := range []int{1, 2, 8} {
		e, err := NewSharded(shards)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		add := func(n int) {
			for i := 0; i < n && at < len(urls); i, at = i+1, at+1 {
				if err := e.AddImage(urls[at], anns[at], nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(phase string) {
			t.Helper()
			ee := e.epoch.Load()
			for s, ep := range ee.shards {
				assertPreparedEqualsFresh(t, fmt.Sprintf("%d shards, shard %d, %s", shards, s, phase), ep)
			}
			for _, text := range preparedTexts {
				first, err := e.QueryAnnotations(text, 5)
				if err != nil {
					t.Fatal(err)
				}
				again, err := e.QueryAnnotations(text, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !hitsEqual(first, again) {
					t.Fatalf("%d shards %s %q: repeat diverges\n first %v\n again %v", shards, phase, text, first, again)
				}
			}
		}
		add(30)
		if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}
		check("build")
		for i := 0; i < 4; i++ {
			add(6)
			engineRefreshStub(t, e)
			check(fmt.Sprintf("refresh %d", i))
		}
	}
}

// TestLiveEngineRecompilesAfterStructuralChange: the live (non-epoch)
// engine caches plans too, keyed by the database's structural version. A
// refresh adds a delta segment's columns to the live database; a plan
// cached before it scans one segment and would silently miss the new
// documents if it were served again.
func TestLiveEngineRecompilesAfterStructuralChange(t *testing.T) {
	urls, anns := refreshCorpus(40, 5)
	m := oneShotStub(t, urls[:35], anns[:35]) // a delta this small does not trigger a merge
	params := ir.QueryParams(ir.Analyze("harbor gull tide"))
	const k = 40
	if _, err := m.Eng.QueryTopK(annotationQuery, params, k, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Eng.QueryTopK(annotationQuery, params, k, nil); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Eng.PlanCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("unchanged live database: %d hits, %d misses, want 1/1", hits, misses)
	}
	for i := 35; i < 40; i++ {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	refreshStub(t, m)
	if m.maxSegments() < 2 {
		t.Fatalf("refresh left %d segments; the test needs a delta segment", m.maxSegments())
	}
	got, err := m.Eng.QueryTopK(annotationQuery, params, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := m.Eng.PlanCacheStats(); misses != 2 {
		t.Fatalf("live engine served a plan compiled before the segment list changed (%d misses)", misses)
	}
	want, err := moa.NewEngine(m.DB).QueryTopK(annotationQuery, params, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Ranked || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("live engine after refresh:\n got  %v\n want %v", got.Rows, want.Rows)
	}
	if len(got.Rows) != 40 {
		t.Fatalf("%d rows; the delta segment's documents are missing", len(got.Rows))
	}
}

// TestPreparedSharedAcrossGoroutines binds and runs ONE Prepared from 8
// goroutines at once (run under -race), each with its own query terms and
// its own pruning threshold — unseeded, or seeded at the k-th score the
// query really achieves, the way the θ-memo seeds a repeat.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	urls, anns := refreshCorpus(300, 21)
	m := oneShotStub(t, urls, anns)
	ep := m.currentEpoch()
	const k = 5
	eng := moa.NewEngine(ep.DB)
	eng.Opts.TopK = k
	p, err := eng.Prepare(annotationQuery, map[string]moa.Type{
		"query": &moa.SetType{Elem: moa.StrType}, "stats": moa.StatsType,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := p.Slots()
	if len(slots) != 2 || slots[0].Name != "query" || slots[1].Name != "stats" {
		t.Fatalf("slots %+v", slots)
	}
	const workers = 8
	texts := []string{"harbor gull", "tide", "kelp foam buoy", "lantern mist salt",
		"gull pier", "anchor", "driftwood foam", "salt mist buoy"}
	want := make([]*moa.Result, workers)
	for w := range want {
		want[w] = freshTopK(t, ep, annotationQuery, ir.QueryParams(ir.Analyze(texts[w])), k)
		if !want[w].Ranked {
			t.Fatal("expected the pruned plan")
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			terms := ir.Analyze(texts[w])
			for i := 0; i < 40; i++ {
				theta := bat.NewTopKThreshold()
				if rows := want[w].Rows; i%2 == 1 && len(rows) == k {
					theta.Raise(rows[k-1].Value.(float64))
				}
				c, err := p.Bind([]any{terms, nil}, theta)
				if err != nil {
					t.Errorf("worker %d: bind: %v", w, err)
					return
				}
				got, err := c.Run()
				if err != nil {
					t.Errorf("worker %d: run: %v", w, err)
					return
				}
				if !reflect.DeepEqual(got.Rows, want[w].Rows) {
					t.Errorf("worker %d iter %d %q:\n got  %v\n want %v", w, i, texts[w], got.Rows, want[w].Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// warmPlanAllocs pins the allocs/op of a warm-plan miss on the public
// surface — Mirror.QueryAnnotationsStamped with the result cache off and
// the θ-memo disabled, so every call compiles nothing and scans in full —
// on the fixture below, measured at 87 with go1.24 on linux/amd64 (93
// before the top-k sorts moved from sort.Slice to slices.SortFunc).
// Before prepared plans the same query allocated 266 objects: every query
// re-lexed, re-parsed, re-checked, re-planned and re-lowered the ranking
// expression and copied the snapshot map into its environment.
const warmPlanAllocs = 87

// raceEnabled is set under the race detector, whose sync.Pool drops
// pooled scratch at random: allocation counts are then not exact.
var raceEnabled bool

// TestWarmPlanAllocsPinned is the deterministic counter behind the claimed
// latency gain: allocations per served query do not depend on the host's
// load, so a change that quietly puts compile work (or the snapshot copy)
// back on the per-query path fails here, not in a noisy timing ratio.
func TestWarmPlanAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	urls, anns := refreshCorpus(400, 7)
	m := oneShotStub(t, urls, anns)
	m.SetThetaMemo(0)
	ep := m.currentEpoch()
	const text, k = "kelp foam buoy", 10
	if _, _, err := m.QueryAnnotationsStamped(text, k); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := m.QueryAnnotationsStamped(text, k); err != nil {
			t.Fatal(err)
		}
	})
	if hits, misses := ep.Eng.PlanCacheStats(); misses != 1 || hits < 200 {
		t.Fatalf("the measured calls were not warm: %d hits, %d misses", hits, misses)
	}
	t.Logf("warm-plan QueryAnnotationsStamped: %.0f allocs/op (pinned %d, before prepared plans 266)", got, warmPlanAllocs)
	if got > warmPlanAllocs {
		t.Fatalf("warm-plan QueryAnnotationsStamped allocates %.0f objects/op, over the pinned %d", got, warmPlanAllocs)
	}
}
