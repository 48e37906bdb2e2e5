package moa

import (
	"fmt"
	"testing"
)

// FuzzMoaParse drives the Moa lexer and all three parser entry points
// (query, program, type DDL) with arbitrary input: malformed query text
// must produce an error, never a panic — this is the text a network client
// hands the server verbatim.
//
// Seed corpus: the inline seeds below plus testdata/fuzz/FuzzMoaParse.
func FuzzMoaParse(f *testing.F) {
	seeds := []string{
		"",
		";",
		"People",
		"map[sum(THIS)](map[THIS.score](People));",
		"select[THIS.age > 21 and THIS.age <= 40](People)",
		"map[TUPLE<n: THIS.name, s: THIS.score * 2.0>](People);",
		"map[getBL(THIS.annotation, query, stats)](Lib);",
		"select[not (THIS.age = 3)](People);",
		"map[sum(THIS)](map[getBL(THIS.body, query, stats)]( Docs ));",
		"count(People);",
		"map[THIS](People)(extra);",
		"select[THIS.age >](People);",
		"define Docs as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: body>>;",
		"define X as LIST<Atomic<Int>>;",
		"SET<TUPLE<Atomic<Text>: a>>",
		"TUPLE<<>>",
		"map[map[map[THIS](THIS)](THIS)](S);",
		"sel\x00ect[THIS](S);",
		"map[THIS.a.b.c](S) @",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := ParseQuery(src); err == nil && e != nil {
			_ = e.String()
		}
		_, _ = ParseProgram(src)
		_, _ = ParseType(src)
	})
}

// FuzzPlanOptimizer is the plan-optimizer differential fuzz target: for
// any query the naive plan (NoOptimize) and the fully optimised plan
// (fusion, pushdown, CSE) must produce identical results. An input the
// naive pipeline compiles but the optimised one rejects is also a bug.
// It is also the cached-plan differential: one engine lives across all
// inputs, so its plan cache fills, evicts and re-serves plans, and every
// answer it gives — compiled now or served from the cache — must equal
// the from-scratch optimised one.
func FuzzPlanOptimizer(f *testing.F) {
	seeds := []string{
		"map[THIS * 2.0](map[THIS.score](People));",
		"select[THIS.age > 21](select[THIS.score > 0.6](People));",
		"select[THIS > 0.6](map[THIS.score](People));",
		"map[sum(THIS.grades)](select[THIS.age < 41](People));",
		"map[THIS + 1.0](map[THIS * 2.0](map[THIS.score](People)));",
		"select[THIS > 1.0](map[sum(THIS.grades)](People));",
		"map[TUPLE<n: THIS.name, s: THIS.score * 2.0>](People);",
		"select[true](People);",
		"select[1 = 2](map[THIS.age](People));",
		"count(select[THIS.age > 21](People));",
		"sum(map[THIS.score](People));",
		"join[THIS1.name = THIS2.name](People, People);",
		// dualQuery's shape (Section 5.2's #sum of two evidence sums) over
		// two nested sets that are empty for different elements
		"map[(sum(THIS.a) + sum(THIS.b)) / 2](Evidence);",
		"map[sum(THIS.a) + sum(THIS.b) + count(THIS.a)](Evidence);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := mkEvidenceDB(f)
	cached := &Engine{DB: db, Opts: DefaultOptions}
	f.Fuzz(func(t *testing.T, src string) {
		naive := &Engine{DB: db, Opts: NoOptimize}
		opt := &Engine{DB: db, Opts: DefaultOptions}
		rn, errN := naive.Query(src, nil)
		ro, errO := opt.Query(src, nil)
		for pass := 0; pass < 2; pass++ { // the second pass is a cache hit
			rc, errC := cached.Query(src, nil)
			if (errC == nil) != (errO == nil) {
				t.Fatalf("cached engine pass %d: err %v, fresh engine: err %v\n%s", pass, errC, errO, src)
			}
			if errC == nil {
				sameResult(t, "cached vs fresh, "+src, ro, rc)
			}
		}
		if errN != nil {
			return // invalid (or unflattenable) input either way
		}
		if errO != nil {
			t.Fatalf("optimised pipeline rejects what the naive one runs: %v\n%s", errO, src)
		}
		sameResult(t, "naive vs optimised, "+src, rn, ro)
	})
}

// sameResult demands two results agree in shape, cardinality, row order
// and every value.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if (want.Rows == nil) != (got.Rows == nil) {
		t.Fatalf("result shape diverged for %s", label)
	}
	if want.Rows == nil {
		if fmtScalar(want.Scalar) != fmtScalar(got.Scalar) {
			t.Fatalf("scalar diverged for %s: %v vs %v", label, want.Scalar, got.Scalar)
		}
		return
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("cardinality diverged for %s: %d vs %d", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if want.Rows[i].OID != got.Rows[i].OID || fmtScalar(want.Rows[i].Value) != fmtScalar(got.Rows[i].Value) {
			t.Fatalf("row %d diverged for %s: %v vs %v", i, label, want.Rows[i], got.Rows[i])
		}
	}
}

func fmtScalar(v any) string { return fmt.Sprintf("%#v", v) }

// mkEvidenceDB is mkPeopleDB plus a set whose two nested float sets are
// empty for different elements: the two filled sums of a body like
// dualQuery's then fill different elements, which is what the positional
// [+] multiplex of two filled BATs must survive.
func mkEvidenceDB(t testing.TB) *Database {
	t.Helper()
	db := mkPeopleDB(t)
	if err := db.DefineFromSource(`define Evidence as SET<TUPLE<SET<Atomic<flt>>: a, SET<Atomic<flt>>: b>>;`); err != nil {
		t.Fatal(err)
	}
	for _, r := range []map[string]any{
		{"a": []any{}, "b": []any{0.5, 0.25}},
		{"a": []any{1.0}, "b": []any{}},
		{"a": []any{2.0, 3.0}, "b": []any{4.0}},
		{"a": []any{}, "b": []any{}},
		{"a": []any{8.0}, "b": []any{16.0}},
	} {
		if _, err := db.Insert("Evidence", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
