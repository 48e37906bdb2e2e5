package moa

import (
	"strings"
	"testing"
)

func TestJoinMultiEquality(t *testing.T) {
	db := NewDatabase()
	err := db.DefineFromSource(`
		define A as SET<TUPLE<Atomic<str>: k1, Atomic<int>: k2, Atomic<str>: pay>>;
		define B as SET<TUPLE<Atomic<str>: j1, Atomic<int>: j2, Atomic<int>: val>>;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []map[string]any{
		{"k1": "x", "k2": 1, "pay": "a"},
		{"k1": "x", "k2": 2, "pay": "b"},
		{"k1": "y", "k2": 1, "pay": "c"},
	} {
		if _, err := db.Insert("A", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []map[string]any{
		{"j1": "x", "j2": 1, "val": 10},
		{"j1": "x", "j2": 2, "val": 20},
		{"j1": "z", "j2": 1, "val": 30},
	} {
		if _, err := db.Insert("B", r); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(db)
	res, err := eng.Query(`join[THIS1.k1 = THIS2.j1 and THIS1.k2 = THIS2.j2](A, B);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("multi-eq join rows = %d, want 2 (%+v)", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		v := row.Value.(map[string]any)
		switch v["pay"].(string) {
		case "a":
			if v["val"].(int64) != 10 {
				t.Fatalf("row a: %v", v)
			}
		case "b":
			if v["val"].(int64) != 20 {
				t.Fatalf("row b: %v", v)
			}
		default:
			t.Fatalf("unexpected row %v", v)
		}
	}
	// interpreter agrees
	ip := NewInterp(db, nil)
	ires, err := ip.Query(`join[THIS1.k1 = THIS2.j1 and THIS1.k2 = THIS2.j2](A, B);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ires.Rows) != 2 {
		t.Fatalf("interp multi-eq join rows = %d", len(ires.Rows))
	}
}

func TestJoinOverSelectedSource(t *testing.T) {
	db := mkPeopleDB(t)
	if err := db.DefineFromSource(
		`define Pets as SET<TUPLE<Atomic<str>: owner, Atomic<str>: pet>>;`); err != nil {
		t.Fatal(err)
	}
	for _, r := range []map[string]any{
		{"owner": "ada", "pet": "cat"},
		{"owner": "bob", "pet": "dog"},
		{"owner": "cy", "pet": "fish"},
	} {
		if _, err := db.Insert("Pets", r); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(db)
	res, err := eng.Query(`
		join[THIS1.name = THIS2.owner](
			select[THIS.age > 25](People), Pets);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// adults: ada(30), cy(40) → join with their pets
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d (%+v)", len(res.Rows), res.Rows)
	}
	pets := map[string]bool{}
	for _, row := range res.Rows {
		pets[row.Value.(map[string]any)["pet"].(string)] = true
	}
	if !pets["cat"] || !pets["fish"] {
		t.Fatalf("pets = %v", pets)
	}
}

func TestNestedMapRejectedByFlattener(t *testing.T) {
	db := mkPeopleDB(t)
	eng := &Engine{DB: db, Opts: NoOptimize} // fusion off so nesting survives
	// a query whose body contains a nested map over a nested set
	_, err := eng.Query(`map[map[THIS * 2.0](THIS.grades)](People);`, nil)
	if err == nil {
		t.Fatal("nested map should be rejected by the flattener")
	}
	if !strings.Contains(err.Error(), "interpreter") {
		t.Fatalf("error should point at the interpreter: %v", err)
	}
	// ... and the interpreter does handle it
	ip := NewInterp(db, nil)
	res, err := ip.Query(`map[map[THIS * 2.0](THIS.grades)](People);`)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Rows[0].Value.([]Row)
	if len(first) != 3 || first[0].Value.(float64) != 2.0 {
		t.Fatalf("interp nested map = %+v", first)
	}
}

func TestEmptySelectResult(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[THIS.name](select[THIS.age > 1000](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// constant-false predicate folds to an empty domain
	res, err = eng.Query(`map[THIS.name](select[1 > 2](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("const-false rows = %d", len(res.Rows))
	}
	// constant-true predicate keeps everything
	res, err = eng.Query(`count(select[1 < 2](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 4 {
		t.Fatalf("const-true count = %v", res.Scalar)
	}
}

func TestMinOverEmptyNestedSet(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[min(THIS.grades)](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cy (OID 2) has no grades: min is absent (nil)
	row, ok := res.Find(2)
	if !ok {
		t.Fatal("row for cy missing")
	}
	if row.Value != nil {
		t.Fatalf("min over empty = %v, want nil", row.Value)
	}
	// others have values
	row, _ = res.Find(0)
	if row.Value.(float64) != 1.0 {
		t.Fatalf("min(ada) = %v", row.Value)
	}
}

func TestScalarFnsInMapBody(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[log(exp(THIS.score))](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0].Value.(float64)
	if v < 0.899 || v > 0.901 {
		t.Fatalf("log(exp(.9)) = %v", v)
	}
	res, err = eng.Query(`map[sqrt(abs(THIS.score - 1.0))](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[1].Value.(float64) < 0.7 { // sqrt(0.5)
		t.Fatalf("sqrt/abs = %v", res.Rows[1].Value)
	}
}

func TestParamErrors(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	// query references an unbound name
	if _, err := eng.Query(`map[THIS.age > limit](People);`, nil); err == nil {
		t.Fatal("unbound parameter should fail the checker")
	}
	// tuple-typed parameters are not supported
	params := map[string]Param{
		"p": {T: &SetType{Elem: &TupleType{Names: []string{"x"}, Types: []Type{IntType}}}, V: []any{}},
	}
	if _, err := eng.Query(`count(p);`, params); err == nil {
		t.Fatal("tuple-set parameter should be rejected")
	}
	// parameter value of the wrong Go type
	params = map[string]Param{
		"q": {T: &SetType{Elem: StrType}, V: 42},
	}
	if _, err := eng.Query(`count(q);`, params); err == nil {
		t.Fatal("bad parameter value should fail")
	}
}

func TestResetAndRebuild(t *testing.T) {
	db := mkPeopleDB(t)
	if err := db.Reset("People"); err != nil {
		t.Fatal(err)
	}
	def, _ := db.Set("People")
	if def.Card != 0 {
		t.Fatalf("card after reset = %d", def.Card)
	}
	eng := NewEngine(db)
	res, err := eng.Query(`count(People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 0 {
		t.Fatalf("count after reset = %v", res.Scalar)
	}
	// fresh inserts get OIDs from zero again
	oid, err := db.Insert("People", map[string]any{
		"name": "eve", "age": 28, "score": 0.6, "grades": []any{1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid != 0 {
		t.Fatalf("first OID after reset = %d", oid)
	}
	if err := db.Reset("Ghost"); err == nil {
		t.Fatal("reset of unknown set should fail")
	}
}

func TestConcurrentReadQueries(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	c, err := eng.Compile(`map[sum(THIS.grades)](select[THIS.age > 20](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compiled plans share BATs read-only; hash indexes may be built
	// concurrently, so each goroutine uses its own compilation.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			cg, err := eng.Compile(`map[sum(THIS.grades)](select[THIS.age > 20](People));`, nil)
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 20; i++ {
				res, err := cg.Run()
				if err != nil {
					done <- err
					return
				}
				if len(res.Rows) != 3 {
					done <- errRows(len(res.Rows))
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	_ = c
}

type errRows int

func (e errRows) Error() string { return "unexpected row count" }

// TestTwoFilledSumsMatchInterp is the Interp ≡ flattened check for a body
// adding two aggregates over nested sets that are empty for different
// elements (dualQuery's shape): each sum fills its own missing elements,
// and the positional [+] multiplex must still pair every element's two
// sums — which holds because fill emits domain order.
func TestTwoFilledSumsMatchInterp(t *testing.T) {
	db := mkEvidenceDB(t)
	const src = `map[(sum(THIS.a) + sum(THIS.b)) / 2](Evidence);`
	want := []float64{0.375, 0.5, 4.5, 0, 12}
	for _, opts := range []Options{DefaultOptions, NoOptimize} {
		res, err := (&Engine{DB: db, Opts: opts}).Query(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		ires, err := NewInterp(db, nil).Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) || len(ires.Rows) != len(want) {
			t.Fatalf("rows: flattened %d, interp %d, want %d", len(res.Rows), len(ires.Rows), len(want))
		}
		for _, row := range res.Rows {
			irow, ok := ires.Find(row.OID)
			if !ok || row.Value != want[row.OID] || irow.Value != want[row.OID] {
				t.Fatalf("element %d: flattened %v, interp %v, want %v", row.OID, row.Value, irow.Value, want[row.OID])
			}
		}
	}
}
