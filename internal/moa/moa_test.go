package moa

import (
	"strings"
	"testing"
)

// mkPeopleDB builds a small SET<TUPLE> collection used across tests.
func mkPeopleDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	err := db.DefineFromSource(`
		define People as SET<TUPLE<
			Atomic<str>: name,
			Atomic<int>: age,
			Atomic<flt>: score,
			SET<Atomic<flt>>: grades
		>>;`)
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]any{
		{"name": "ada", "age": 30, "score": 0.9, "grades": []any{1.0, 2.0, 3.0}},
		{"name": "bob", "age": 20, "score": 0.5, "grades": []any{4.0}},
		{"name": "cy", "age": 40, "score": 0.7, "grades": []any{}},
		{"name": "dee", "age": 25, "score": 0.8, "grades": []any{5.0, 5.0}},
	}
	for _, r := range rows {
		if _, err := db.Insert("People", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestParseDefine(t *testing.T) {
	stmts, err := ParseProgram(`define X as SET<TUPLE<Atomic<URL>: source, Atomic<Text>: annotation>>;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || stmts[0].Define == nil {
		t.Fatalf("stmts = %+v", stmts)
	}
	d := stmts[0].Define
	if d.Name != "X" {
		t.Fatalf("name = %s", d.Name)
	}
	st, ok := d.Type.(*SetType)
	if !ok {
		t.Fatalf("type = %T", d.Type)
	}
	tt := st.Elem.(*TupleType)
	if len(tt.Names) != 2 || tt.Names[0] != "source" || !tt.Types[0].Equal(URLType) {
		t.Fatalf("tuple = %v", tt)
	}
}

func TestParseDefineErrors(t *testing.T) {
	bad := []string{
		`define X as SET<TUPLE<Atomic<URL>: a, Atomic<URL>: a>>;`, // dup field
		`define X as SET<TUPLE<Atomic<Bogus>: a>>;`,               // unknown atom
		`define X as SET<NOSUCH<int>>;`,                           // unknown structure
		`define X SET<Atomic<int>>;`,                              // missing as
		`define X as SET<Atomic<int>>`,                            // missing ;
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) should fail", src)
		}
	}
}

func TestParseQueryShapes(t *testing.T) {
	good := []string{
		`map[sum(THIS)](map[THIS.score](People));`,
		`select[THIS.age > 21 and THIS.age <= 40](People)`,
		`join[THIS1.name = THIS2.owner](A, B);`,
		`map[TUPLE<n: THIS.name, s: THIS.score * 2.0>](People);`,
		`count(People);`,
		`map[getBL(THIS.annotation, query, stats)](Lib);`,
		`select[not (THIS.age = 3)](People);`,
	}
	for _, src := range good {
		if _, err := ParseQuery(src); err != nil {
			t.Errorf("ParseQuery(%q): %v", src, err)
		}
	}
	bad := []string{
		`map[THIS](People)(extra);`,
		`map(People);`,
		`select[THIS.age >](People);`,
		`join[x](OnlyOne);`,
		`1 +;`,
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestCheckTypes(t *testing.T) {
	db := mkPeopleDB(t)
	env := &CheckEnv{DB: db}
	cases := []struct {
		src  string
		want string
	}{
		{`People;`, "SET<TUPLE<str: name, int: age, flt: score, SET<flt>: grades>>"},
		{`map[THIS.score](People);`, "SET<flt>"},
		{`map[THIS.age * 2](People);`, "SET<int>"},
		{`map[sum(THIS.grades)](People);`, "SET<flt>"},
		{`map[count(THIS.grades)](People);`, "SET<int>"},
		{`select[THIS.age > 21](People);`, "SET<TUPLE<str: name, int: age, flt: score, SET<flt>: grades>>"},
		{`count(People);`, "int"},
		{`sum(map[THIS.score](People));`, "flt"},
		{`map[TUPLE<a: THIS.name, b: THIS.score>](People);`, "SET<TUPLE<str: a, flt: b>>"},
	}
	for _, c := range cases {
		e, err := ParseQuery(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		typ, err := Check(e, env)
		if err != nil {
			t.Fatalf("check %q: %v", c.src, err)
		}
		if typ.String() != c.want {
			t.Errorf("type of %q = %s, want %s", c.src, typ, c.want)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	db := mkPeopleDB(t)
	env := &CheckEnv{DB: db}
	bad := []string{
		`THIS;`,                               // THIS outside map
		`map[THIS.bogus](People);`,            // unknown field
		`select[THIS.age](People);`,           // non-bool predicate
		`sum(People);`,                        // non-numeric elements
		`map[THIS.name * 2](People);`,         // string arithmetic
		`Unknown;`,                            // unknown set
		`map[THIS1.name](People);`,            // THIS1 outside join
		`map[nosuchfn(THIS.score)](People);`,  // unknown function
		`select[THIS.name and true](People);`, // and on non-bool
	}
	for _, src := range bad {
		e, err := ParseQuery(src)
		if err != nil {
			continue // parse error also acceptable
		}
		if _, err := Check(e, env); err == nil {
			t.Errorf("Check(%q) should fail", src)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := mkPeopleDB(t)
	if _, err := db.Insert("People", map[string]any{"name": "x"}); err == nil {
		t.Fatal("missing fields should fail")
	}
	if _, err := db.Insert("People", map[string]any{
		"name": "x", "age": 1, "score": 0.1, "grades": []any{}, "extra": 1,
	}); err == nil {
		t.Fatal("unknown field should fail")
	}
	if _, err := db.Insert("Nope", map[string]any{}); err == nil {
		t.Fatal("unknown set should fail")
	}
	if _, err := db.Insert("People", "not a map"); err == nil {
		t.Fatal("non-tuple value should fail")
	}
	if err := db.Define("People", &SetType{Elem: IntType}); err == nil {
		t.Fatal("duplicate define should fail")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	db := mkPeopleDB(t)
	src := db.SchemaSource()
	db2 := NewDatabase()
	if err := db2.DefineFromSource(src); err != nil {
		t.Fatalf("re-applying schema %q: %v", src, err)
	}
	d1, _ := db.Set("People")
	d2, _ := db2.Set("People")
	if !d1.Type.Equal(d2.Type) {
		t.Fatalf("schema round trip mismatch: %s vs %s", d1.Type, d2.Type)
	}
}

func TestEngineProjectionAndSelect(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)

	res, err := eng.Query(`map[THIS.name](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0].Value.(string) != "ada" {
		t.Fatalf("projection = %+v", res.Rows)
	}

	res, err = eng.Query(`select[THIS.age > 21](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("select rows = %d, want 3", len(res.Rows))
	}
	first := res.Rows[0].Value.(map[string]any)
	if first["name"].(string) != "ada" {
		t.Fatalf("first = %v", first)
	}

	res, err = eng.Query(`map[THIS.name](select[THIS.age > 21 and THIS.score < 0.8](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Value.(string) != "cy" {
		t.Fatalf("combined = %+v", res.Rows)
	}
}

func TestEngineArithmeticAndTuples(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[TUPLE<n: THIS.name, doubled: THIS.score * 2.0>](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[1].Value.(map[string]any)
	if v["n"].(string) != "bob" || v["doubled"].(float64) != 1.0 {
		t.Fatalf("tuple row = %v", v)
	}
}

func TestEngineNestedAggregates(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[sum(THIS.grades)](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 4, 0, 10}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, w := range want {
		row, ok := res.Find(res.Rows[i].OID)
		if !ok || row.Value.(float64) != w {
			t.Errorf("sum(grades)[%d] = %v, want %v", i, res.Rows[i].Value, w)
		}
	}
	res, err = eng.Query(`map[count(THIS.grades)](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantC := []int64{3, 1, 0, 2}
	for i, w := range wantC {
		if res.Rows[i].Value.(int64) != w {
			t.Errorf("count(grades)[%d] = %v, want %v", i, res.Rows[i].Value, w)
		}
	}
}

func TestEngineScalarAggregates(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`count(People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 4 {
		t.Fatalf("count = %v", res.Scalar)
	}
	res, err = eng.Query(`sum(map[THIS.score](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Scalar.(float64) - 2.9; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v", res.Scalar)
	}
	res, err = eng.Query(`count(select[THIS.age < 26](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 2 {
		t.Fatalf("count select = %v", res.Scalar)
	}
}

func TestEngineJoin(t *testing.T) {
	db := NewDatabase()
	err := db.DefineFromSource(`
		define A as SET<TUPLE<Atomic<str>: k, Atomic<int>: va>>;
		define B as SET<TUPLE<Atomic<str>: kb, Atomic<int>: vb>>;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []map[string]any{{"k": "x", "va": 1}, {"k": "y", "va": 2}, {"k": "x", "va": 3}} {
		if _, err := db.Insert("A", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []map[string]any{{"kb": "x", "vb": 10}, {"kb": "z", "vb": 20}} {
		if _, err := db.Insert("B", r); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(db)
	res, err := eng.Query(`join[THIS1.k = THIS2.kb](A, B);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d, want 2 (%+v)", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		v := row.Value.(map[string]any)
		if v["k"].(string) != "x" || v["vb"].(int64) != 10 {
			t.Fatalf("join row = %v", v)
		}
	}
	// projection over a join result
	res, err = eng.Query(`map[THIS.va](join[THIS1.k = THIS2.kb](A, B));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, row := range res.Rows {
		got[row.Value.(int64)] = true
	}
	if !got[1] || !got[3] || len(got) != 2 {
		t.Fatalf("join projection = %v", got)
	}
}

func TestEngineParams(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	params := map[string]Param{
		"minage": {T: IntType, V: int64(24)},
	}
	res, err := eng.Query(`map[THIS.name](select[THIS.age >= minage](People));`, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("param select = %+v", res.Rows)
	}
	// set-valued parameter aggregated inside a map body
	params2 := map[string]Param{
		"bonus": {T: &SetType{Elem: FloatType}, V: []float64{0.5, 0.25}},
	}
	res, err = eng.Query(`map[THIS.score + sum(bonus)](People);`, params2)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Rows[0].Value.(float64); v < 1.649 || v > 1.651 {
		t.Fatalf("score+sum(bonus) = %v", v)
	}
}

func TestOptimizedMatchesUnoptimized(t *testing.T) {
	db := mkPeopleDB(t)
	queries := []string{
		`map[THIS * 2.0](map[THIS.score](People));`,
		`select[THIS.age > 21](select[THIS.score > 0.6](People));`,
		`map[sum(THIS.grades)](select[THIS.age < 41](People));`,
		`map[THIS + 1.0](map[THIS * 2.0](map[THIS.score](People)));`,
	}
	for _, q := range queries {
		opt := NewEngine(db)
		unopt := &Engine{DB: db, Opts: NoOptimize}
		r1, err := opt.Query(q, nil)
		if err != nil {
			t.Fatalf("optimized %q: %v", q, err)
		}
		r2, err := unopt.Query(q, nil)
		if err != nil {
			t.Fatalf("unoptimized %q: %v", q, err)
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("%q: row counts %d vs %d", q, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			if r1.Rows[i].OID != r2.Rows[i].OID {
				t.Fatalf("%q: row %d OID %v vs %v", q, i, r1.Rows[i].OID, r2.Rows[i].OID)
			}
		}
	}
}

// Differential test: flattened executor vs tuple-at-a-time interpreter.
func TestFlattenedMatchesInterpreter(t *testing.T) {
	db := mkPeopleDB(t)
	queries := []string{
		`map[THIS.name](People);`,
		`map[THIS.score * 2.0 + 1.0](People);`,
		`select[THIS.age > 21](People);`,
		`map[sum(THIS.grades)](People);`,
		`map[count(THIS.grades)](People);`,
		`count(People);`,
		`sum(map[THIS.score](People));`,
		`map[THIS.name](select[THIS.score >= 0.7](People));`,
		`map[TUPLE<n: THIS.name, x: THIS.age + 1>](People);`,
	}
	for _, q := range queries {
		eng := NewEngine(db)
		fl, err := eng.Query(q, nil)
		if err != nil {
			t.Fatalf("flattened %q: %v", q, err)
		}
		ip := NewInterp(db, nil)
		in, err := ip.Query(q)
		if err != nil {
			t.Fatalf("interp %q: %v", q, err)
		}
		if fl.Scalar != nil || in.Scalar != nil {
			if !scalarEqual(fl.Scalar, in.Scalar) {
				t.Fatalf("%q: scalar %v vs %v", q, fl.Scalar, in.Scalar)
			}
			continue
		}
		if len(fl.Rows) != len(in.Rows) {
			t.Fatalf("%q: rows %d vs %d", q, len(fl.Rows), len(in.Rows))
		}
		for i := range fl.Rows {
			if fl.Rows[i].OID != in.Rows[i].OID {
				t.Fatalf("%q row %d: OID %v vs %v", q, i, fl.Rows[i].OID, in.Rows[i].OID)
			}
			if !valuesEqual(fl.Rows[i].Value, in.Rows[i].Value) {
				t.Fatalf("%q row %d: %#v vs %#v", q, i, fl.Rows[i].Value, in.Rows[i].Value)
			}
		}
	}
}

// valuesEqual compares materialised values with numeric tolerance.
func valuesEqual(a, b any) bool {
	if am, ok := a.(map[string]any); ok {
		bm, ok := b.(map[string]any)
		if !ok || len(am) != len(bm) {
			return false
		}
		for k, av := range am {
			if !valuesEqual(av, bm[k]) {
				return false
			}
		}
		return true
	}
	if as, ok := a.([]any); ok {
		bs, ok := b.([]any)
		if !ok || len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !valuesEqual(as[i], bs[i]) {
				return false
			}
		}
		return true
	}
	af, aNum := numVal(a)
	bf, bNum := numVal(b)
	if aNum && bNum {
		d := af - bf
		return d < 1e-9 && d > -1e-9
	}
	return a == b
}

func TestCompiledMILIsReparseable(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	c, err := eng.Compile(`map[sum(THIS.grades)](select[THIS.age > 21](People));`, nil)
	if err != nil {
		t.Fatal(err)
	}
	milSrc := c.MIL()
	if milSrc == "" {
		t.Fatal("empty MIL program")
	}
	if !strings.Contains(milSrc, "join") && !strings.Contains(milSrc, "semijoin") {
		t.Fatalf("MIL program lacks joins:\n%s", milSrc)
	}
	// re-run compiled query twice: results identical (programs are pure)
	r1, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("re-run changed result")
	}
}

func TestCSEDeduplicates(t *testing.T) {
	db := mkPeopleDB(t)
	withCSE := NewEngine(db)
	noCSE := &Engine{DB: db, Opts: Options{FuseMaps: true, FuseAggregates: true, FuseSelects: true, CSE: false}}
	q := `map[THIS.score + THIS.score](select[THIS.age > 1](People));`
	c1, err := withCSE.Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := noCSE.Compile(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1, n2 := len(strings.Split(c1.MIL(), "\n")), len(strings.Split(c2.MIL(), "\n")); n1 > n2 {
		t.Fatalf("CSE should not grow the program: %d vs %d", n1, n2)
	}
	r1, _ := c1.Run()
	r2, _ := c2.Run()
	for i := range r1.Rows {
		if !valuesEqual(r1.Rows[i].Value, r2.Rows[i].Value) {
			t.Fatal("CSE changed semantics")
		}
	}
}

func TestResultSortByScore(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	res, err := eng.Query(`map[THIS.score](People);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.SortByScoreDesc()
	if res.Rows[0].Value.(float64) != 0.9 || res.Rows[3].Value.(float64) != 0.5 {
		t.Fatalf("sorted = %+v", res.Rows)
	}
}

func TestListFieldRoundTrip(t *testing.T) {
	db := NewDatabase()
	if err := db.DefineFromSource(`define L as SET<TUPLE<Atomic<str>: n, LIST<Atomic<int>>: xs>>;`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("L", map[string]any{"n": "a", "xs": []any{3, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db)
	res, err := eng.Query(`map[count(THIS.xs)](L);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Value.(int64) != 3 {
		t.Fatalf("list count = %v", res.Rows[0].Value)
	}
	res, err = eng.Query(`L;`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0].Value.(map[string]any)
	xs := v["xs"].([]any)
	if len(xs) != 3 || xs[0].(int64) != 3 {
		t.Fatalf("list materialise = %v", xs)
	}
}
