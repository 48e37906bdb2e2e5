// Command benchgate is the CI performance-regression gate: it compares a
// freshly measured BENCH_queries.json against the committed baseline and
// fails (exit 1) when a gated metric degraded past its tolerance.
//
//	git show HEAD:BENCH_queries.json > /tmp/baseline.json
//	go run ./cmd/benchgate -baseline /tmp/baseline.json -fresh BENCH_queries.json
//
// Only dimensionless metrics are gated — speedup factors, cost
// ratios, skip rates, compression — never absolute nanoseconds: the
// baseline and the fresh run rarely execute on comparable hardware
// (committed numbers come from a developer machine, fresh ones from a
// shared CI runner), so absolute latencies cannot be compared, but the
// ratios each run measures against itself transfer. Tolerances are per
// metric and deliberately wide where the measurement is timing-derived
// (shared hosts make even intra-run ratios noisy); deterministic
// counter-derived metrics (skip rates, decoded postings, compression)
// get tight ones, so a pruning regression cannot hide behind timing
// noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// rule gates one metric. Direction says which way is better; tol bounds
// the allowed degradation relative to baseline: higher-better metrics
// must stay ≥ baseline/tol, lower-better ones ≤ baseline·tol. A non-zero
// abs is a fixed bound on the fresh value itself (≤ abs for lower-better,
// ≥ abs for higher-better), for ratios whose acceptable range is known
// without reference to a baseline; the gate is the tighter of the two and
// applies even when the baseline lacks the metric.
type rule struct {
	metric string
	higher bool    // true: larger is better
	tol    float64 // ≥ 1; 1 = no degradation allowed
	abs    float64 // 0 = none
}

// limit returns the bound the fresh value must meet given the baseline
// value, or gated=false when the metric is neither in the baseline nor
// absolutely bounded.
func (g rule) limit(base float64, inBase bool) (limit float64, gated bool) {
	if !inBase {
		return g.abs, g.abs != 0
	}
	limit = base * g.tol
	if g.higher {
		limit = base / g.tol
	}
	if g.abs != 0 && g.met(g.abs, limit) { // the absolute bound is the tighter one
		limit = g.abs
	}
	return limit, true
}

// met reports whether a fresh value satisfies the limit.
func (g rule) met(fresh, limit float64) bool {
	if g.higher {
		return fresh >= limit
	}
	return fresh <= limit
}

// queryGates are the gated BENCH_queries.json metrics. Timing-derived
// ratios (speedups, scatter gain) carry wide tolerances —
// observed run-to-run spread on a shared host is 2–4× even with
// best-of-N sampling — while counter-derived metrics are deterministic
// for a fixed fixture and get 10%.
var queryGates = []rule{
	{metric: "speedup", higher: true, tol: 3.0},                     // pruned vs exhaustive
	{metric: "warm_theta_speedup", higher: true, tol: 2.5},          // θ-memo seeded rescan
	{metric: "scatter_shared_gain", higher: true, tol: 4.0},         // streamed vs isolated θ
	{metric: "compression_ratio", higher: true, tol: 1.1},           // 8 B/field over stored bytes
	{metric: "block_skip_rate", higher: true, tol: 1.1},             // uniform corpus
	{metric: "skewed_block_skip_rate", higher: true, tol: 1.1},      // skewed corpus, cold
	{metric: "warm_theta_block_skip_rate", higher: true, tol: 1.05}, // skewed corpus, seeded
	{metric: "decode_postings", higher: false, tol: 1.1},            // postings touched by pruned scans
	// plan-cache hit + bind over a from-scratch compile: a prepared plan
	// that costs more than a quarter of compiling has lost its point,
	// whatever the baseline says.
	{metric: "prepare_hit_vs_fresh", higher: false, tol: 4.0, abs: 0.25},
}

// load reads a bench JSON file into metric→value form. The emitters
// write round numbers as JSON numbers and formatted ratios as strings
// ("1.47"); both parse to float64 here, everything else is skipped.
func load(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		switch x := v.(type) {
		case float64:
			out[k] = x
		case string:
			if f, err := strconv.ParseFloat(x, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out, nil
}

// violation is one failed gate, in report form.
type violation struct {
	rule        rule
	base, fresh float64
	limit       float64
}

// check applies the gates. A metric missing from the baseline is
// skipped unless its rule carries an absolute bound (metrics are added
// over time; the next baseline commit picks them up); a gated metric
// missing from the fresh run is itself a violation — silently dropping a
// measurement must not pass the gate.
func check(gates []rule, base, fresh map[string]float64) []violation {
	var out []violation
	for _, g := range gates {
		b, inBase := base[g.metric]
		limit, gated := g.limit(b, inBase)
		if !gated {
			continue
		}
		f, ok := fresh[g.metric]
		if !ok {
			out = append(out, violation{rule: g, base: b, fresh: -1})
			continue
		}
		if !g.met(f, limit) {
			out = append(out, violation{rule: g, base: b, fresh: f, limit: limit})
		}
	}
	return out
}

func main() {
	baseline := flag.String("baseline", "", "committed bench JSON (required)")
	fresh := flag.String("fresh", "", "freshly measured bench JSON (required)")
	flag.Parse()
	if *baseline == "" || *fresh == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*fresh)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	viols := check(queryGates, base, cur)
	for _, g := range queryGates {
		b, inBase := base[g.metric]
		limit, gated := g.limit(b, inBase)
		if !gated {
			fmt.Printf("  skip %-28s (not in baseline)\n", g.metric)
			continue
		}
		dir, baseline := "≥", "none"
		if !g.higher {
			dir = "≤"
		}
		if inBase {
			baseline = fmt.Sprintf("%.4g", b)
		}
		f, ok := cur[g.metric]
		status, val := "ok  ", fmt.Sprintf("%.4g", f)
		if !ok {
			status, val = "FAIL", "missing"
		} else if !g.met(f, limit) {
			status = "FAIL"
		}
		fmt.Printf("  %s %-28s baseline %s, fresh %s (gate %s %.4g)\n",
			status, g.metric, baseline, val, dir, limit)
	}
	if len(viols) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d metric(s) degraded past tolerance\n", len(viols))
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated metrics within tolerance")
}
