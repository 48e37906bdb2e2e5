package moa

import (
	"strings"
	"testing"
)

// planFor builds and optimises the plan of a set query against db.
func planFor(t *testing.T, db *Database, src string, opts Options) Plan {
	t.Helper()
	e, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(e, &CheckEnv{DB: db}); err != nil {
		t.Fatal(err)
	}
	tl, err := Translate(db, e, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tl.Plan
}

func TestPlanMapFusion(t *testing.T) {
	db := mkPeopleDB(t)
	p := planFor(t, db, `map[THIS * 2.0](map[THIS.score](People));`, DefaultOptions)
	mp, ok := p.(*MapPlan)
	if !ok {
		t.Fatalf("plan root = %T", p)
	}
	if _, nested := mp.Src.(*MapPlan); nested {
		t.Fatalf("maps not fused:\n%s", PlanString(p))
	}
	if !strings.Contains(mp.Body.String(), "THIS.score * 2") {
		t.Fatalf("fused body wrong: %s", mp.Body)
	}
	// structure preserved without the rule
	p2 := planFor(t, db, `map[THIS * 2.0](map[THIS.score](People));`, NoOptimize)
	if _, nested := p2.(*MapPlan).Src.(*MapPlan); !nested {
		t.Fatal("NoOptimize fused maps")
	}
}

func TestPlanSelectFusionAndPushdown(t *testing.T) {
	db := mkPeopleDB(t)
	p := planFor(t, db, `select[THIS.age > 21](select[THIS.score > 0.6](People));`, DefaultOptions)
	sp, ok := p.(*SelectPlan)
	if !ok {
		t.Fatalf("plan root = %T\n%s", p, PlanString(p))
	}
	if _, nested := sp.Src.(*SelectPlan); nested {
		t.Fatalf("selects not fused:\n%s", PlanString(p))
	}

	// selection pushdown: the select moves below the map with THIS
	// substituted by the map body.
	p = planFor(t, db, `select[THIS > 0.6](map[THIS.score](People));`, DefaultOptions)
	mp, ok := p.(*MapPlan)
	if !ok {
		t.Fatalf("pushdown root = %T\n%s", p, PlanString(p))
	}
	inner, ok := mp.Src.(*SelectPlan)
	if !ok {
		t.Fatalf("select not pushed below map:\n%s", PlanString(p))
	}
	if !strings.Contains(inner.Pred.String(), "THIS.score") {
		t.Fatalf("pushed predicate missing substitution: %s", inner.Pred)
	}
}

// TestPlanPushdownSemantics: pushdown on/off must give identical results.
func TestPlanPushdownSemantics(t *testing.T) {
	db := mkPeopleDB(t)
	src := `select[THIS > 0.6](map[THIS.score](People));`
	on := NewEngine(db)
	off := &Engine{DB: db, Opts: DefaultOptions}
	off.Opts.PushSelects = false
	r1, err := on.Query(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := off.Query(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("pushdown changed cardinality: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i].OID != r2.Rows[i].OID || r1.Rows[i].Value != r2.Rows[i].Value {
			t.Fatalf("row %d: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

// TestPlanTopKFallbackShape: top-k over a plan with no pruned form stays a
// TopKPlan (lowered as the exact fallback) instead of breaking the query.
func TestPlanTopKFallbackShape(t *testing.T) {
	db := mkPeopleDB(t)
	opts := DefaultOptions
	opts.TopK = 2
	p := planFor(t, db, `map[THIS.score](People);`, opts)
	if _, ok := p.(*TopKPlan); !ok {
		t.Fatalf("expected TopKPlan fallback root, got %T\n%s", p, PlanString(p))
	}
	eng := &Engine{DB: db, Opts: opts}
	res, err := eng.Query(`map[THIS.score](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked {
		t.Fatal("fallback marked Ranked")
	}
	if len(res.Rows) != 4 {
		t.Fatalf("fallback must return the full result for the caller to cut, got %d rows", len(res.Rows))
	}
}

func TestPlanString(t *testing.T) {
	db := mkPeopleDB(t)
	p := planFor(t, db, `select[THIS.age > 21](People);`, DefaultOptions)
	s := PlanString(p)
	if !strings.Contains(s, "select") || !strings.Contains(s, "scan People") {
		t.Fatalf("PlanString: %q", s)
	}
}
