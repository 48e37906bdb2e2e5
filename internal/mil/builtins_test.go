package mil

import (
	"fmt"
	"math"
	"testing"

	"mirror/internal/bat"
)

// mk builds a dense-headed BAT for builtin tests.
func mk(t *testing.T, tk bat.Kind, vals ...any) *bat.BAT {
	t.Helper()
	b := bat.NewDense(0, tk)
	for i, v := range vals {
		if err := b.Append(bat.OID(i), v); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestSetOperationBuiltins(t *testing.T) {
	l := bat.New(bat.KindOID, bat.KindStr)
	l.MustAppend(bat.OID(1), "a")
	l.MustAppend(bat.OID(2), "b")
	r := bat.New(bat.KindOID, bat.KindStr)
	r.MustAppend(bat.OID(2), "x")
	r.MustAppend(bat.OID(3), "y")
	bind := map[string]any{"l": l, "r": r}

	if v := runSrc(t, "count(kunion(l, r));", bind); v.(int64) != 3 {
		t.Fatalf("kunion = %v", v)
	}
	if v := runSrc(t, "count(kdiff(l, r));", bind); v.(int64) != 1 {
		t.Fatalf("kdiff = %v", v)
	}
	if v := runSrc(t, "count(kintersect(l, r));", bind); v.(int64) != 1 {
		t.Fatalf("kintersect = %v", v)
	}
	if v := runSrc(t, "count(cross(l, r));", bind); v.(int64) != 4 {
		t.Fatalf("cross = %v", v)
	}
}

func TestSelectionBuiltins(t *testing.T) {
	b := mk(t, bat.KindStr, "apple", "pear", "APPLE")
	bind := map[string]any{"b": b}
	if v := runSrc(t, `count(like_select(b, "app"));`, bind); v.(int64) != 2 {
		t.Fatalf("like_select = %v", v)
	}
	if v := runSrc(t, `count(select_not(b, "pear"));`, bind); v.(int64) != 2 {
		t.Fatalf("select_not = %v", v)
	}
	if v := runSrc(t, `exists(reverse(b), "pear");`, bind); v.(bool) != true {
		t.Fatalf("exists = %v", v)
	}
	if v := runSrc(t, `exists(reverse(b), "kiwi");`, bind); v.(bool) != false {
		t.Fatalf("exists = %v", v)
	}
}

func TestHistogramAndNumber(t *testing.T) {
	b := mk(t, bat.KindStr, "x", "y", "x", "x")
	bind := map[string]any{"b": b}
	if v := runSrc(t, `find(histogram(b), "x");`, bind); v.(int64) != 3 {
		t.Fatalf("histogram = %v", v)
	}
	if v := runSrc(t, `count(number(b));`, bind); v.(int64) != 4 {
		t.Fatalf("number = %v", v)
	}
	dup := bat.New(bat.KindOID, bat.KindInt)
	dup.MustAppend(bat.OID(5), int64(1))
	dup.MustAppend(bat.OID(5), int64(2))
	if v := runSrc(t, `count(kunique(d));`, map[string]any{"d": dup}); v.(int64) != 1 {
		t.Fatalf("kunique = %v", v)
	}
}

func TestScalarAggBuiltins(t *testing.T) {
	b := mk(t, bat.KindFloat, 2.0, 4.0, 6.0)
	bind := map[string]any{"b": b}
	cases := map[string]float64{
		"avg(b);": 4, "min(b);": 2, "max(b);": 6, "prod(b);": 48,
	}
	for src, want := range cases {
		if v := runSrc(t, src, bind); math.Abs(v.(float64)-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", src, v, want)
		}
	}
}

func TestCalcBuiltin(t *testing.T) {
	cases := map[string]float64{
		`calc("+", 2, 3);`:   5,
		`calc("-", 2, 3);`:   -1,
		`calc("*", 2.5, 4);`: 10,
		`calc("/", 9, 3);`:   3,
		`calc("/", 9, 0);`:   0,
		`calc("min", 2, 3);`: 2,
		`calc("max", 2, 3);`: 3,
	}
	for src, want := range cases {
		if v := runSrc(t, src, nil); math.Abs(v.(float64)-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", src, v, want)
		}
	}
	env := NewEnv()
	if _, err := RunSource(`calc("%", 1, 2);`, env); err == nil {
		t.Fatal("unknown calc op should error")
	}
}

func TestFillBuiltin(t *testing.T) {
	scores := bat.New(bat.KindOID, bat.KindFloat)
	scores.MustAppend(bat.OID(0), 0.9)
	scores.MustAppend(bat.OID(2), 0.7)
	domain := bat.New(bat.KindVoid, bat.KindVoid)
	for i := 0; i < 4; i++ {
		domain.MustAppend(bat.OID(i), bat.OID(i))
	}
	bind := map[string]any{"s": scores, "d": domain}
	v := runSrc(t, `var f := fill(s, d, 0.5); count(f);`, bind)
	if v.(int64) != 4 {
		t.Fatalf("fill count = %v", v)
	}
	v = runSrc(t, `find(fill(s, d, 0.5), 3@0);`, bind)
	if v.(float64) != 0.5 {
		t.Fatalf("fill default = %v", v)
	}
	v = runSrc(t, `find(fill(s, d, 0.5), 0@0);`, bind)
	if v.(float64) != 0.9 {
		t.Fatalf("fill existing = %v", v)
	}
	// int tail coercion path
	counts := bat.New(bat.KindOID, bat.KindInt)
	counts.MustAppend(bat.OID(1), int64(7))
	v = runSrc(t, `find(fill(c, d, 0), 2@0);`, map[string]any{"c": counts, "d": domain})
	if v.(int64) != 0 {
		t.Fatalf("fill int = %v", v)
	}
}

func TestWSumBelBuiltin(t *testing.T) {
	// term 10 → (doc 0, 0.9)
	seg, err := bat.EncodeBlockSegment(append(make([]int64, 11), 1), []bat.OID{0}, []int64{1}, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	bind := map[string]any{"q": mk(t, bat.KindOID, bat.OID(10)), "w": mk(t, bat.KindFloat, 2.0)}
	segs := segArgs(bind, "s", seg)
	v := runSrc(t, `find(wsum_bel(0.4, q, w`+segs+`), 0@0);`, bind)
	// 2*(0.9-0.4) + 2*0.4 = 1.8
	if math.Abs(v.(float64)-1.8) > 1e-12 {
		t.Fatalf("wsum_bel = %v", v)
	}
	// wsum_bel needs its weights; getbl and getbl_pairs refuse them, and
	// each takes exactly one source
	for _, src := range []string{
		`wsum_bel(0.4, q` + segs + `);`,
		`getbl(0.4, q, w` + segs + `);`,
		`getbl_pairs(0.4, q, q, w` + segs + `);`,
		`getbl(0.4, q` + segs + `, q` + segs + `);`,
	} {
		env := NewEnv()
		for k, v := range bind {
			env.Bind(k, v)
		}
		if _, err := RunSource(src, env); err == nil {
			t.Errorf("%s accepted", src)
		}
	}
}

func TestRefineBuiltin(t *testing.T) {
	a := mk(t, bat.KindStr, "x", "x", "y")
	b := mk(t, bat.KindInt, int64(1), int64(2), int64(1))
	v := runSrc(t, `
		var g := group(a);
		var g2 := refine(g, b);
		count(g2);`, map[string]any{"a": a, "b": b})
	if v.(int64) != 3 {
		t.Fatalf("refine count = %v", v)
	}
}

func TestBuiltinArgErrors(t *testing.T) {
	b := mk(t, bat.KindInt, int64(1))
	bad := []string{
		`join(b);`,             // arity
		`join(b, 3);`,          // type
		`select(3, 1);`,        // not a BAT
		`topn(b, "x");`,        // bad int
		`new(oid);`,            // arity
		`new(blob, int);`,      // unknown kind
		`mark(3);`,             // not a BAT
		`slice(b, 1);`,         // arity
		`fetch(b, 99);`,        // out of range
		`find(b, 99);`,         // missing head
		`getbl(b, b, b, b);`,   // arity
		`{bogus}(b);`,          // unknown aggregate
		`[bogus](b);`,          // unknown unary mux
		`[+](1, 2);`,           // no BAT operand
		`{sum}(b, b, b);`,      // pump arity
		`like_select(b, "x");`, // non-str tail
		`histogram(b, b);`,     // arity
	}
	for _, src := range bad {
		env := NewEnv()
		env.Bind("b", b)
		if _, err := RunSource(src, env); err == nil {
			t.Errorf("RunSource(%q) should fail", src)
		}
	}
}

func TestMuxBoolOps(t *testing.T) {
	a := mk(t, bat.KindBool, true, false)
	b := mk(t, bat.KindBool, true, true)
	v := runSrc(t, `fetch([and](a, b), 1);`, map[string]any{"a": a, "b": b})
	if v.(bool) != false {
		t.Fatalf("[and] = %v", v)
	}
	v = runSrc(t, `fetch([or](a, b), 1);`, map[string]any{"a": a, "b": b})
	if v.(bool) != true {
		t.Fatalf("[or] = %v", v)
	}
	v = runSrc(t, `fetch([not](a), 0);`, map[string]any{"a": a})
	if v.(bool) != false {
		t.Fatalf("[not] = %v", v)
	}
}

// segArgs binds the seven columns of every segment under prefix-derived
// names and returns the source tail naming them: ", nsegs, cols...".
func segArgs(bind map[string]any, prefix string, segs ...bat.PostingsSeg) string {
	out := fmt.Sprintf(", %d", len(segs))
	for i, s := range segs {
		for j, b := range []*bat.BAT{s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel} {
			name := fmt.Sprintf("%s%dc%d", prefix, i, j)
			bind[name] = b
			out += ", " + name
		}
	}
	return out
}

// TestPrunedTopKBuiltin exercises the MIL surface of the pruned retrieval
// operator on a hand-built block-layout postings fixture: two segments,
// two terms, four documents, one unmatched document merged in at the
// default score — then the same postings as the second source of a
// two-source #sum, segmented differently.
func TestPrunedTopKBuiltin(t *testing.T) {
	// segment 0: term 0 → (doc 0, 0.9); term 1 → (doc 1, 0.6)
	// segment 1: term 0 → (doc 2, 0.5)
	s0, err := bat.EncodeBlockSegment([]int64{0, 1, 2}, []bat.OID{0, 1}, []int64{1, 1}, []float64{0.9, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := bat.EncodeBlockSegment([]int64{0, 1, 1}, []bat.OID{2}, []int64{1}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	// the same postings as one merged segment
	whole, err := bat.EncodeBlockSegment([]int64{0, 2, 3}, []bat.OID{0, 2, 1}, []int64{1, 1, 1}, []float64{0.9, 0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	q := mk(t, bat.KindOID, bat.OID(0), bat.OID(1))
	domain := bat.New(bat.KindVoid, bat.KindVoid)
	for i := 0; i < 4; i++ {
		domain.MustAppend(bat.OID(i), bat.OID(i))
	}
	bind := map[string]any{"q": q, "dom": domain}
	split, merged := segArgs(bind, "s", s0, s1), segArgs(bind, "w", whole)

	v := runSrc(t, "prunedtopk(0.4, 4, dom, 1.0, q"+split+");", bind)
	out := v.(*bat.BAT)
	// scores: doc0 = 0.9+0.4 = 1.3, doc1 = 0.4+0.6 = 1.0, doc2 = 0.5+0.4 = 0.9,
	// doc3 unmatched = 2·0.4 = 0.8
	wantD := []bat.OID{0, 1, 2, 3}
	wantS := []float64{1.3, 1.0, 0.9, 0.8}
	if out.Len() != 4 {
		t.Fatalf("prunedtopk: %d hits", out.Len())
	}
	for i := range wantD {
		if out.Head.OIDAt(i) != wantD[i] || math.Abs(out.Tail.FloatAt(i)-wantS[i]) > 1e-12 {
			t.Fatalf("rank %d: (%d, %v)", i, out.Head.OIDAt(i), out.Tail.FloatAt(i))
		}
	}
	// k cuts
	out = runSrc(t, "prunedtopk(0.4, 2, dom, 1.0, q"+split+");", bind).(*bat.BAT)
	if out.Len() != 2 || out.Head.OIDAt(0) != 0 || out.Head.OIDAt(1) != 1 {
		t.Fatalf("k=2 cut wrong: %v", out)
	}
	// two sources, differently segmented: every score is (s + s) / 2 = s
	out = runSrc(t, "prunedtopk(0.4, 4, dom, 2, q"+split+", q"+merged+");", bind).(*bat.BAT)
	for i := range wantD {
		if out.Head.OIDAt(i) != wantD[i] || math.Abs(out.Tail.FloatAt(i)-wantS[i]) > 1e-12 {
			t.Fatalf("two sources rank %d: (%d, %v)", i, out.Head.OIDAt(i), out.Tail.FloatAt(i))
		}
	}
	// a weighted source beside an unweighted one: doc0 = (1.3 + 3·0.5 +
	// 4·0.4) / 2, doc1 = (1.0 + 1·0.2 + 4·0.4) / 2, doc2 = (0.9 + 3·0.1 +
	// 4·0.4) / 2, doc3 unmatched = (0.8 + 4·0.4) / 2
	bind["w"] = mk(t, bat.KindFloat, 3.0, 1.0)
	out = runSrc(t, "prunedtopk(0.4, 4, dom, 2, q"+split+", q, w"+merged+");", bind).(*bat.BAT)
	wantW := []float64{(1.3 + 1.5 + 1.6) / 2, (1.0 + 0.2 + 1.6) / 2, (0.9 + 0.3 + 1.6) / 2, (0.8 + 1.6) / 2}
	for i := range wantD {
		if out.Head.OIDAt(i) != wantD[i] || math.Abs(out.Tail.FloatAt(i)-wantW[i]) > 1e-12 {
			t.Fatalf("weighted source rank %d: (%d, %v), want (%d, %v)", i, out.Head.OIDAt(i), out.Tail.FloatAt(i), wantD[i], wantW[i])
		}
	}
	// a segment short of its seven columns, and weights misaligned with
	// their terms or not flt, are argument errors, not panics
	bind["w1"] = mk(t, bat.KindFloat, 3.0)
	bind["wi"] = mk(t, bat.KindInt, int64(3), int64(1))
	env := NewEnv()
	for k, v := range bind {
		env.Bind(k, v)
	}
	for _, src := range []string{
		"prunedtopk(0.4, 2, dom, 1.0, q, 1, s0c0, s0c1, s0c2, s0c3);",
		"prunedtopk(0.4, 2, dom, 1.0);",
		"prunedtopk(0.4, 2, dom, 1.0, q, 0);",
		"prunedtopk(0.4, 2, dom, 1.0, q, w1" + merged + ");",
		"prunedtopk(0.4, 2, dom, 1.0, q, wi" + merged + ");",
	} {
		if _, err := RunSource(src, env); err == nil {
			t.Fatalf("%s accepted", src)
		}
	}
}
