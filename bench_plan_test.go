package mirror

// Compile-layer rows of the perf trajectory: what a query pays before its
// MIL program runs, compiled from scratch (lex, parse, check, plan,
// optimise, lower — every query's cost before prepared plans) against a
// plan-cache hit plus the per-call bind. TestEmitPlanCacheBenchJSON merges
// its rows into the BENCH_queries.json the root TestEmitQueryBenchJSON
// writes; cmd/benchgate holds prepare_hit_vs_fresh to an absolute bound.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"mirror/internal/corpus"
	"mirror/internal/ir"
	"mirror/internal/moa"
)

func TestEmitPlanCacheBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_QUERIES_JSON")
	if path == "" {
		t.Skip("BENCH_QUERIES_JSON not set")
	}
	db := textDB(t, 4000)
	opts := moa.DefaultOptions
	opts.TopK = 10 // the served shape: the cut pushed into the pruned operator
	const samples = 2000
	// Parameter values change from call to call (2–4 terms); the plan
	// does not depend on them.
	params := make([]map[string]moa.Param, samples)
	for i := range params {
		params[i] = ir.QueryParams(corpus.QueryTerms(2 + i%3))
	}
	p50us := func(compile func(i int) error) float64 {
		ns := make([]int64, samples)
		for i := range ns {
			t0 := time.Now()
			if err := compile(i); err != nil {
				t.Fatal(err)
			}
			ns[i] = time.Since(t0).Nanoseconds()
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		return float64(ns[len(ns)/2]) / 1e3
	}
	fresh := func(i int) error {
		eng := &moa.Engine{DB: db, Opts: opts} // empty plan cache: compiles
		_, err := eng.Compile(docsRankQuery, params[i%samples])
		return err
	}
	warm := &moa.Engine{DB: db, Opts: opts}
	hit := func(i int) error {
		_, err := warm.Compile(docsRankQuery, params[i%samples])
		return err
	}
	if err := hit(0); err != nil { // the one compile
		t.Fatal(err)
	}
	freshUs, hitUs := p50us(fresh), p50us(hit)
	n := 0
	freshAllocs := testing.AllocsPerRun(200, func() { n++; _ = fresh(n) })
	hitAllocs := testing.AllocsPerRun(200, func() { n++; _ = hit(n) })
	if hits, misses := warm.PlanCacheStats(); misses != 1 || hits < samples {
		t.Fatalf("warm engine: %d hits, %d misses", hits, misses)
	}

	out := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", path, err)
		}
	}
	out["compile_fresh_p50_us"] = fmt.Sprintf("%.2f", freshUs)
	out["prepare_hit_bind_p50_us"] = fmt.Sprintf("%.2f", hitUs)
	out["compile_fresh_allocs_per_op"] = freshAllocs
	out["prepare_hit_bind_allocs_per_op"] = hitAllocs
	out["prepare_hit_vs_fresh"] = fmt.Sprintf("%.3f", hitUs/freshUs)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("compile layer: fresh p50 %.2fµs (%.0f allocs/op), cache hit + bind p50 %.2fµs (%.0f allocs/op), ratio %.3f",
		freshUs, freshAllocs, hitUs, hitAllocs, hitUs/freshUs)
}
