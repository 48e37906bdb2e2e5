package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckDirectionsAndTolerances(t *testing.T) {
	gates := []rule{
		{metric: "up", higher: true, tol: 2.0},
		{metric: "down", higher: false, tol: 2.0},
	}
	base := map[string]float64{"up": 10, "down": 1.0}

	// Within tolerance both ways.
	if v := check(gates, base, map[string]float64{"up": 5.0, "down": 2.0}); len(v) != 0 {
		t.Fatalf("boundary values must pass: %+v", v)
	}
	// Past tolerance, each direction independently.
	if v := check(gates, base, map[string]float64{"up": 4.9, "down": 1.0}); len(v) != 1 || v[0].rule.metric != "up" {
		t.Fatalf("higher-better degradation not caught: %+v", v)
	}
	if v := check(gates, base, map[string]float64{"up": 10, "down": 2.1}); len(v) != 1 || v[0].rule.metric != "down" {
		t.Fatalf("lower-better degradation not caught: %+v", v)
	}
	// Improvements are never violations.
	if v := check(gates, base, map[string]float64{"up": 100, "down": 0.1}); len(v) != 0 {
		t.Fatalf("improvements flagged: %+v", v)
	}
}

func TestCheckMissingMetrics(t *testing.T) {
	gates := []rule{{metric: "m", higher: true, tol: 1.5}}
	// Not in baseline: skipped (new metrics gate only once committed).
	if v := check(gates, map[string]float64{}, map[string]float64{"m": 1}); len(v) != 0 {
		t.Fatalf("baseline-missing metric must be skipped: %+v", v)
	}
	// In baseline but not measured fresh: that IS a violation.
	if v := check(gates, map[string]float64{"m": 1}, map[string]float64{}); len(v) != 1 {
		t.Fatalf("fresh-missing metric must fail: %+v", v)
	}
}

// An absolute bound holds whatever the baseline says — including a
// baseline that lacks the metric or one loose enough that the relative
// gate alone would pass.
func TestCheckAbsoluteBound(t *testing.T) {
	gates := []rule{{metric: "ratio", higher: false, tol: 4.0, abs: 0.25}}
	for _, c := range []struct {
		base  map[string]float64
		fresh float64
		fails bool
	}{
		{map[string]float64{}, 0.2, false},
		{map[string]float64{}, 0.3, true},
		{map[string]float64{"ratio": 0.2}, 0.3, true},    // within 4x of baseline, over the bound
		{map[string]float64{"ratio": 0.04}, 0.2, true},   // under the bound, 5x the baseline
		{map[string]float64{"ratio": 0.04}, 0.15, false}, // within both
	} {
		v := check(gates, c.base, map[string]float64{"ratio": c.fresh})
		if (len(v) == 1) != c.fails {
			t.Errorf("base %v fresh %v: violations %+v, want fail=%v", c.base, c.fresh, v, c.fails)
		}
	}
	if v := check(gates, map[string]float64{}, map[string]float64{}); len(v) != 1 {
		t.Fatalf("an absolutely bounded metric missing from the fresh run must fail: %+v", v)
	}
}

// The committed BENCH_queries.json must gate against itself: every gated
// metric present and trivially within tolerance, so the CI step cannot
// fail on a no-change commit.
func TestCommittedBaselineSelfGates(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_queries.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	m, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range queryGates {
		if _, ok := m[g.metric]; !ok {
			t.Errorf("committed baseline lacks gated metric %q", g.metric)
		}
		if g.tol < 1 {
			t.Errorf("gate %q: tolerance %v < 1 forbids the baseline itself", g.metric, g.tol)
		}
	}
	if v := check(queryGates, m, m); len(v) != 0 {
		t.Fatalf("baseline does not self-gate: %+v", v)
	}
}
