package mil

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mirror/internal/bat"
)

func runSrc(t *testing.T, src string, bind map[string]any) any {
	t.Helper()
	env := NewEnv()
	for k, v := range bind {
		env.Bind(k, v)
	}
	v, err := RunSource(src, env)
	if err != nil {
		t.Fatalf("RunSource(%q): %v", src, err)
	}
	return v
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x := ;",
		"x = 1;",
		"var := 2;",
		`x := "unterminated;`,
		"x := foo(1,;",
		"x := [**?](a, b);",
		"x := 1",
		"x := @3;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLiteralsAndAssignment(t *testing.T) {
	v := runSrc(t, `
		var x := 42;
		var y := 2.5;
		var s := "hi\n";
		var b := true;
		var o := 7@0;
		var n := nil;
		x;
	`, nil)
	if v.(int64) != 42 {
		t.Fatalf("x = %v", v)
	}
	v = runSrc(t, "var y := -3; y;", nil)
	if v.(int64) != -3 {
		t.Fatalf("neg = %v", v)
	}
}

func TestNewInsertSelect(t *testing.T) {
	v := runSrc(t, `
		var b := new(oid, int);
		insert(b, 0@0, 5);
		insert(b, 1@0, 9);
		insert(b, 2@0, 5);
		var s := select(b, 5);
		count(s);
	`, nil)
	if v.(int64) != 2 {
		t.Fatalf("count = %v", v)
	}
}

func TestMethodSugar(t *testing.T) {
	b := bat.NewDense(0, bat.KindFloat)
	b.MustAppend(bat.OID(0), 1.0)
	b.MustAppend(bat.OID(1), 2.0)
	v := runSrc(t, "b.reverse().reverse().sum();", map[string]any{"b": b})
	if v.(float64) != 3.0 {
		t.Fatalf("sum = %v", v)
	}
}

func TestMultiplexAndPump(t *testing.T) {
	vals := bat.NewDense(0, bat.KindFloat)
	grp := bat.NewDense(0, bat.KindOID)
	for i, v := range []float64{1, 2, 3, 4} {
		vals.MustAppend(bat.OID(i), v)
		grp.MustAppend(bat.OID(i), bat.OID(i%2))
	}
	v := runSrc(t, `
		var doubled := [*](vals, 2.0);
		var sums := {sum}(doubled, grp);
		fetch(sums, 0);
	`, map[string]any{"vals": vals, "grp": grp})
	if v.(float64) != 8 { // (1+3)*2
		t.Fatalf("group0 sum = %v", v)
	}
}

func TestPumpByHeadViaBrace(t *testing.T) {
	b := bat.New(bat.KindOID, bat.KindFloat)
	b.MustAppend(bat.OID(1), 0.5)
	b.MustAppend(bat.OID(1), 0.25)
	b.MustAppend(bat.OID(2), 1.0)
	v := runSrc(t, `var s := {sum}(b); find(s, 1@0);`, map[string]any{"b": b})
	if v.(float64) != 0.75 {
		t.Fatalf("pump-by-head = %v", v)
	}
}

func TestUnaryMux(t *testing.T) {
	b := bat.NewDense(0, bat.KindFloat)
	b.MustAppend(bat.OID(0), math.E)
	v := runSrc(t, "fetch([log](b), 0);", map[string]any{"b": b})
	if math.Abs(v.(float64)-1) > 1e-12 {
		t.Fatalf("[log](e) = %v", v)
	}
}

func TestJoinPipeline(t *testing.T) {
	// classic Monet pattern: project a column through an intermediate.
	name := bat.NewDense(0, bat.KindStr)
	name.MustAppend(bat.OID(0), "ada")
	name.MustAppend(bat.OID(1), "bob")
	name.MustAppend(bat.OID(2), "cy")
	age := bat.NewDense(0, bat.KindInt)
	age.MustAppend(bat.OID(0), int64(30))
	age.MustAppend(bat.OID(1), int64(20))
	age.MustAppend(bat.OID(2), int64(40))
	v := runSrc(t, `
		var adults := uselect(age, 25, 99);
		var names := join(mark(adults, 0).reverse().reverse(), name);
		count(names);
	`, map[string]any{"name": name, "age": age})
	if v.(int64) != 2 {
		t.Fatalf("adults = %v", v)
	}
}

func TestGetBLBuiltin(t *testing.T) {
	// term 10 → (doc 0, 0.9); term 11 → (doc 1, 0.6)
	seg, err := bat.EncodeBlockSegment(append(make([]int64, 11), 1, 2), []bat.OID{0, 1}, []int64{1, 1}, []float64{0.9, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	q := bat.NewDense(0, bat.KindOID)
	q.MustAppend(bat.OID(0), bat.OID(10))
	q.MustAppend(bat.OID(1), bat.OID(11))
	bind := map[string]any{"q": q}
	v := runSrc(t, `
		var scores := getbl(0.4, q`+segArgs(bind, "s", seg)+`);
		find(scores, 0@0);
	`, bind)
	if math.Abs(v.(float64)-1.3) > 1e-12 { // 0.9 + default 0.4
		t.Fatalf("getbl doc0 = %v", v)
	}
}

func TestPrintOutput(t *testing.T) {
	env := NewEnv()
	var buf bytes.Buffer
	env.Out = &buf
	if _, err := RunSource(`print("hello", 3);`, env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hello" 3`) {
		t.Fatalf("print output = %q", buf.String())
	}
}

func TestUndefinedVariable(t *testing.T) {
	env := NewEnv()
	if _, err := RunSource("x;", env); err == nil {
		t.Fatal("undefined variable should error")
	}
	if _, err := RunSource("nosuchfn(1);", env); err == nil {
		t.Fatal("unknown function should error")
	}
}

func TestForkIsolation(t *testing.T) {
	env := NewEnv()
	env.Bind("base", int64(1))
	child := env.Fork()
	if _, err := RunSource("tmp := 5; tmp;", child); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Lookup("tmp"); ok {
		t.Fatal("child binding leaked into parent")
	}
	if v, ok := child.Lookup("base"); !ok || v.(int64) != 1 {
		t.Fatal("child should see parent bindings")
	}
}

func TestRoundTripRendering(t *testing.T) {
	src := `
		var b := new(oid, flt);
		insert(b, 0@0, 0.5);
		x := [*](b, 2.0);
		s := {sum}(x);
		print(s);
	`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := p1.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse of %q: %v", rendered, err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", p1.String(), p2.String())
	}
}

func TestProgrammaticConstruction(t *testing.T) {
	p := &Program{}
	p.Assign("b", C("new", L("oid"), L("flt")))
	p.Do(C("insert", R("b"), L(bat.OID(0)), L(0.25)))
	p.Do(C("insert", R("b"), L(bat.OID(1)), L(0.75)))
	p.Assign("s", C("sum", R("b")))
	p.Do(R("s"))
	env := NewEnv()
	v, err := Run(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 1.0 {
		t.Fatalf("sum = %v", v)
	}
	// the rendered text must reparse
	if _, err := Parse(p.String()); err != nil {
		t.Fatalf("render/reparse: %v\n%s", err, p.String())
	}
}

func TestSliceFetchTopN(t *testing.T) {
	b := bat.NewDense(0, bat.KindFloat)
	for i, v := range []float64{0.1, 0.9, 0.5} {
		b.MustAppend(bat.OID(i), v)
	}
	v := runSrc(t, "fetch(topn(b, 1), 0);", map[string]any{"b": b})
	if v.(float64) != 0.9 {
		t.Fatalf("top1 = %v", v)
	}
	v = runSrc(t, "hfetch(topn(b, 1), 0);", map[string]any{"b": b})
	if v.(bat.OID) != 1 {
		t.Fatalf("top1 head = %v", v)
	}
	v = runSrc(t, "count(slice(b, 1, 3));", map[string]any{"b": b})
	if v.(int64) != 2 {
		t.Fatalf("slice count = %v", v)
	}
}

func TestComments(t *testing.T) {
	v := runSrc(t, `
		# hash comment
		// slash comment
		var x := 1; # trailing
		x;
	`, nil)
	if v.(int64) != 1 {
		t.Fatalf("x = %v", v)
	}
}
