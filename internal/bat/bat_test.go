package bat

import (
	"math"
	"testing"
	"testing/quick"
)

func mkDenseFloat(vals ...float64) *BAT {
	b := NewDense(0, KindFloat)
	for i, v := range vals {
		b.MustAppend(OID(i), v)
	}
	return b
}

func mkDenseStr(vals ...string) *BAT {
	b := NewDense(0, KindStr)
	for i, v := range vals {
		b.MustAppend(OID(i), v)
	}
	return b
}

func mkDenseInt(vals ...int64) *BAT {
	b := NewDense(0, KindInt)
	for i, v := range vals {
		b.MustAppend(OID(i), v)
	}
	return b
}

func TestAppendAndLen(t *testing.T) {
	b := New(KindOID, KindStr)
	if b.Len() != 0 {
		t.Fatalf("new BAT len = %d, want 0", b.Len())
	}
	b.MustAppend(OID(7), "x")
	b.MustAppend(OID(3), "y")
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	h, tl, err := b.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.(OID) != 3 || tl.(string) != "y" {
		t.Fatalf("fetch(1) = (%v,%v)", h, tl)
	}
}

func TestAppendTypeMismatch(t *testing.T) {
	b := New(KindOID, KindStr)
	if err := b.Append(OID(1), 42); err == nil {
		t.Fatal("appending int to str tail should fail")
	}
	if err := b.Append("nope", "x"); err == nil {
		t.Fatal("appending str to oid head should fail")
	}
}

func TestVoidDensity(t *testing.T) {
	b := NewDense(10, KindInt)
	b.MustAppend(OID(10), int64(1))
	b.MustAppend(OID(11), int64(2))
	if err := b.Append(OID(13), int64(3)); err == nil {
		t.Fatal("gap in void head should be rejected")
	}
	if got := b.Head.OIDAt(1); got != 11 {
		t.Fatalf("void head at 1 = %d, want 11", got)
	}
}

// TestAppendColumnsMatchesAppend: a bulk append leaves every kind pairing
// the BAT that the same BUNs appended one by one leave, onto an empty BAT
// and onto one holding a BUN, and a refused bulk append (wrong kind,
// broken density, ragged columns) changes nothing.
func TestAppendColumnsMatchesAppend(t *testing.T) {
	cases := []struct {
		name   string
		mk     func() *BAT
		pre    []any // one BUN appended first, or nil
		h, t   *Column
		boxedH []any
		boxedT []any
	}{
		{"void,str", func() *BAT { return NewDense(0, KindStr) }, nil, NewVoid(5, 2), ColumnOfStrs([]string{"a", "b"}),
			[]any{OID(5), OID(6)}, []any{"a", "b"}},
		{"void,str continued", func() *BAT { return NewDense(0, KindStr) }, []any{OID(4), "z"}, NewVoid(5, 2), ColumnOfStrs([]string{"a", "b"}),
			[]any{OID(5), OID(6)}, []any{"a", "b"}},
		{"void,void continued", func() *BAT { return New(KindVoid, KindVoid) }, []any{OID(2), OID(2)}, NewVoid(3, 2), NewVoid(3, 2),
			[]any{OID(3), OID(4)}, []any{OID(3), OID(4)}},
		{"oid,oid from void", func() *BAT { return New(KindOID, KindOID) }, []any{OID(1), OID(6)}, ColumnOfOIDs([]OID{9, 9}), NewVoid(7, 2),
			[]any{OID(9), OID(9)}, []any{OID(7), OID(8)}},
		{"oid,int", func() *BAT { return New(KindOID, KindInt) }, nil, ColumnOfOIDs([]OID{1, 0}), ColumnOfInts([]int64{4, -4}),
			[]any{OID(1), OID(0)}, []any{int64(4), int64(-4)}},
		{"void,flt", func() *BAT { return NewDense(0, KindFloat) }, nil, NewVoid(0, 1), ColumnOfFloats([]float64{0.5}),
			[]any{OID(0)}, []any{0.5}},
		{"void,bit", func() *BAT { return NewDense(0, KindBool) }, nil, NewVoid(0, 2), ColumnOfBools([]bool{true, false}),
			[]any{OID(0), OID(1)}, []any{true, false}},
		{"void,bytes", func() *BAT { return NewDense(0, KindBytes) }, nil, NewVoid(0, 2), ColumnOfBytes([]byte{7, 255}),
			[]any{OID(0), OID(1)}, []any{int64(7), int64(255)}},
	}
	for _, c := range cases {
		bulk, single := c.mk(), c.mk()
		if c.pre != nil {
			bulk.MustAppend(c.pre[0], c.pre[1])
			single.MustAppend(c.pre[0], c.pre[1])
			bulk.ClearDirty()
		}
		if err := bulk.AppendColumns(c.h, c.t); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range c.boxedH {
			single.MustAppend(c.boxedH[i], c.boxedT[i])
		}
		if bulk.String() != single.String() || bulk.HSorted != single.HSorted || bulk.HKey != single.HKey ||
			bulk.TSorted != single.TSorted || bulk.TKey != single.TKey || bulk.Dirty() != single.Dirty() {
			t.Fatalf("%s: bulk %v (flags %v %v %v %v), single %v (flags %v %v %v %v)", c.name,
				bulk, bulk.HSorted, bulk.HKey, bulk.TSorted, bulk.TKey,
				single, single.HSorted, single.HKey, single.TSorted, single.TKey)
		}
	}

	b := NewDense(0, KindInt)
	b.MustAppend(OID(0), int64(1))
	for _, bad := range []struct {
		name string
		h, t *Column
	}{
		{"wrong tail kind", NewVoid(1, 1), ColumnOfStrs([]string{"x"})},
		{"density gap", NewVoid(2, 1), ColumnOfInts([]int64{2})},
		{"materialised head into void", ColumnOfOIDs([]OID{1}), ColumnOfInts([]int64{2})},
		{"ragged", NewVoid(1, 2), ColumnOfInts([]int64{2})},
	} {
		if err := b.AppendColumns(bad.h, bad.t); err == nil {
			t.Fatalf("%s: accepted", bad.name)
		}
		if b.Len() != 1 || b.Tail.Len() != 1 {
			t.Fatalf("%s: refused append changed the BAT: %v", bad.name, b)
		}
	}
	b.ClearDirty()
	if err := b.AppendColumns(NewVoid(1, 0), ColumnOfInts(nil)); err != nil || b.Dirty() {
		t.Fatalf("empty append: err %v, dirty %v", err, b.Dirty())
	}
}

func TestReverseMirrorMark(t *testing.T) {
	b := mkDenseStr("a", "b", "c")
	r := b.Reverse()
	if r.Head.Kind() != KindStr || r.Tail.Kind() != KindVoid {
		t.Fatalf("reverse kinds = %s,%s", r.Head.Kind(), r.Tail.Kind())
	}
	if v, ok := r.Find("b"); !ok || v.(OID) != 1 {
		t.Fatalf("reverse find(b) = %v,%v", v, ok)
	}
	m := b.Mirror()
	if m.Tail.OIDAt(2) != 2 {
		t.Fatal("mirror tail should equal head")
	}
	k := b.Reverse().Mark(100)
	if k.Tail.OIDAt(0) != 100 || k.Tail.OIDAt(2) != 102 {
		t.Fatal("mark should produce dense oids from base")
	}
}

func TestFindDense(t *testing.T) {
	b := mkDenseFloat(0.5, 0.25, 0.125)
	v, ok := b.Find(OID(2))
	if !ok || v.(float64) != 0.125 {
		t.Fatalf("find(2) = %v,%v", v, ok)
	}
	if _, ok := b.Find(OID(3)); ok {
		t.Fatal("find past end should miss")
	}
}

func TestSelectEqualAndRange(t *testing.T) {
	b := mkDenseInt(5, 3, 5, 9, 1)
	s, err := Select(b, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Head.OIDAt(0) != 0 || s.Head.OIDAt(1) != 2 {
		t.Fatalf("select(5) = %v", s)
	}
	r, err := SelectRange(b, int64(3), int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("range [3,5] len = %d, want 3", r.Len())
	}
	open, err := SelectRange(b, nil, int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if open.Len() != 2 {
		t.Fatalf("range (-inf,4] len = %d, want 2", open.Len())
	}
}

func TestSelectString(t *testing.T) {
	b := mkDenseStr("apple", "pear", "apple")
	s, err := Select(b, "apple")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("select apple len = %d", s.Len())
	}
	l, err := LikeSelect(b, "PP")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("like PP len = %d", l.Len())
	}
}

func TestJoinDenseFastPath(t *testing.T) {
	// l: [void, oid] pointing into r's dense head
	l := New(KindOID, KindOID)
	l.MustAppend(OID(100), OID(2))
	l.MustAppend(OID(101), OID(0))
	l.MustAppend(OID(102), OID(9)) // dangling
	r := mkDenseStr("zero", "one", "two")
	j, err := Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("join len = %d, want 2", j.Len())
	}
	if j.Tail.StrAt(0) != "two" || j.Tail.StrAt(1) != "zero" {
		t.Fatalf("join tails = %v", j)
	}
	if j.Head.OIDAt(0) != 100 || j.Head.OIDAt(1) != 101 {
		t.Fatalf("join heads = %v", j)
	}
}

func TestJoinHash(t *testing.T) {
	l := New(KindOID, KindStr)
	l.MustAppend(OID(1), "x")
	l.MustAppend(OID(2), "y")
	l.MustAppend(OID(3), "x")
	r := New(KindStr, KindInt)
	r.MustAppend("x", int64(10))
	r.MustAppend("y", int64(20))
	r.MustAppend("x", int64(30))
	j, err := Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// "x" matches twice for heads 1 and 3, "y" once: total 5
	if j.Len() != 5 {
		t.Fatalf("join len = %d, want 5", j.Len())
	}
}

func TestJoinTypeMismatch(t *testing.T) {
	l := New(KindOID, KindStr)
	l.MustAppend(OID(1), "x")
	r := New(KindInt, KindStr)
	r.MustAppend(int64(1), "y")
	if _, err := Join(l, r); err == nil {
		t.Fatal("str-tail to int-head join should fail")
	}
}

func TestSemiJoinDiffUnion(t *testing.T) {
	l := New(KindOID, KindStr)
	l.MustAppend(OID(1), "a")
	l.MustAppend(OID(2), "b")
	l.MustAppend(OID(3), "c")
	r := New(KindOID, KindInt)
	r.MustAppend(OID(2), int64(0))
	r.MustAppend(OID(3), int64(0))

	s, err := SemiJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Tail.StrAt(0) != "b" {
		t.Fatalf("semijoin = %v", s)
	}
	d, err := Diff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Tail.StrAt(0) != "a" {
		t.Fatalf("diff = %v", d)
	}
	extra := New(KindOID, KindStr)
	extra.MustAppend(OID(3), "dup")
	extra.MustAppend(OID(9), "new")
	u, err := Union(l, extra)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 4 {
		t.Fatalf("union len = %d, want 4", u.Len())
	}
}

func TestGroupAndPump(t *testing.T) {
	// docs 0..4 with category tails
	cat := mkDenseStr("red", "blue", "red", "red", "blue")
	g, err := Group(cat)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tail.OIDAt(0) != 0 || g.Tail.OIDAt(1) != 1 || g.Tail.OIDAt(2) != 0 {
		t.Fatalf("group ids = %v", g)
	}
	vals := mkDenseFloat(1, 2, 3, 4, 5)
	sums, err := PumpAggregate(AggSum, vals, g)
	if err != nil {
		t.Fatal(err)
	}
	if sums.Len() != 2 {
		t.Fatalf("pump groups = %d, want 2", sums.Len())
	}
	if got := sums.Tail.FloatAt(0); got != 8 { // 1+3+4
		t.Fatalf("sum(red) = %v, want 8", got)
	}
	if got := sums.Tail.FloatAt(1); got != 7 { // 2+5
		t.Fatalf("sum(blue) = %v, want 7", got)
	}
	counts, err := PumpAggregate(AggCount, vals, g)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Tail.IntAt(0) != 3 || counts.Tail.IntAt(1) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	avgs, err := PumpAggregate(AggAvg, vals, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avgs.Tail.FloatAt(1)-3.5) > 1e-12 {
		t.Fatalf("avg(blue) = %v, want 3.5", avgs.Tail.FloatAt(1))
	}
}

func TestGroupRefine(t *testing.T) {
	a := mkDenseStr("x", "x", "y", "y")
	b := mkDenseInt(1, 2, 1, 1)
	g, err := Group(a)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GroupRefine(g, b)
	if err != nil {
		t.Fatal(err)
	}
	// (x,1) (x,2) (y,1) (y,1) → 3 groups; rows 2 and 3 share one
	if g2.Tail.OIDAt(2) != g2.Tail.OIDAt(3) {
		t.Fatal("rows 2,3 should share a refined group")
	}
	if g2.Tail.OIDAt(0) == g2.Tail.OIDAt(1) {
		t.Fatal("rows 0,1 must not share a refined group")
	}
}

func TestScalarAggregates(t *testing.T) {
	b := mkDenseFloat(2, 8, 4)
	sum, err := ScalarAggregate(AggSum, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.(float64) != 14 {
		t.Fatalf("sum = %v", sum)
	}
	mx, _ := ScalarAggregate(AggMax, b)
	if mx.(float64) != 8 {
		t.Fatalf("max = %v", mx)
	}
	cnt, _ := ScalarAggregate(AggCount, b)
	if cnt.(int64) != 3 {
		t.Fatalf("count = %v", cnt)
	}
	if _, err := ScalarAggregate(AggMin, New(KindOID, KindFloat)); err == nil {
		t.Fatal("min of empty should error")
	}
}

func TestMultiplex(t *testing.T) {
	a := mkDenseFloat(1, 2, 3)
	b := mkDenseFloat(10, 20, 30)
	s, err := Multiplex("+", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail.FloatAt(2) != 33 {
		t.Fatalf("[+] = %v", s)
	}
	p, err := MultiplexConst("*", a, 2.0, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tail.FloatAt(1) != 4 {
		t.Fatalf("[*]2 = %v", p)
	}
	c, err := Multiplex("<", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tail.Kind() != KindBool || !c.Tail.BoolAt(0) {
		t.Fatalf("[<] = %v", c)
	}
	lg, err := MultiplexUnary("log", a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lg.Tail.FloatAt(1)-math.Log(2)) > 1e-12 {
		t.Fatalf("[log] = %v", lg)
	}
	if _, err := Multiplex("+", a, mkDenseFloat(1)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestMultiplexString(t *testing.T) {
	a := mkDenseStr("foo", "bar")
	b := mkDenseStr("X", "Y")
	s, err := Multiplex("+", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail.StrAt(0) != "fooX" {
		t.Fatalf("str concat = %v", s)
	}
	e, err := MultiplexConst("==", a, "bar", true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tail.BoolAt(0) || !e.Tail.BoolAt(1) {
		t.Fatalf("str eq = %v", e)
	}
}

func TestSortAndTopN(t *testing.T) {
	b := mkDenseFloat(0.3, 0.9, 0.1, 0.9)
	s, err := TSort(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tail.FloatAt(0) != 0.1 || !s.TSorted {
		t.Fatalf("tsort = %v", s)
	}
	top, err := TopN(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 2 || top.Tail.FloatAt(0) != 0.9 || top.Tail.FloatAt(1) != 0.9 {
		t.Fatalf("topN = %v", top)
	}
	// stability: the two 0.9s keep head order 1 then 3
	if top.Head.OIDAt(0) != 1 || top.Head.OIDAt(1) != 3 {
		t.Fatalf("topN stability: %v", top)
	}
	if _, err := TopN(b, 100); err != nil {
		t.Fatalf("topN larger than BAT should clamp: %v", err)
	}
}

func TestHistogramUnique(t *testing.T) {
	b := mkDenseStr("a", "b", "a", "a")
	h, err := Histogram(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("histogram classes = %d", h.Len())
	}
	if v, ok := h.Find("a"); !ok || v.(int64) != 3 {
		t.Fatalf("hist[a] = %v,%v", v, ok)
	}
	dup := New(KindOID, KindStr)
	dup.MustAppend(OID(1), "x")
	dup.MustAppend(OID(1), "y")
	dup.MustAppend(OID(2), "z")
	u, err := Unique(dup)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 || u.Tail.StrAt(0) != "x" {
		t.Fatalf("unique = %v", u)
	}
}

func TestSliceFetchErrors(t *testing.T) {
	b := mkDenseInt(1, 2, 3)
	if _, err := b.Slice(2, 1); err == nil {
		t.Fatal("bad slice should error")
	}
	if _, _, err := b.Fetch(5); err == nil {
		t.Fatal("bad fetch should error")
	}
	s, err := b.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Head.OIDAt(0) != 1 {
		t.Fatalf("slice = %v", s)
	}
}

func TestGetBLAndSumBeliefs(t *testing.T) {
	// contrep: pairs (doc, term, belief)
	term := NewDense(0, KindOID)
	doc := NewDense(0, KindOID)
	bel := NewDense(0, KindFloat)
	add := func(d, tm OID, b float64) {
		i := OID(term.Len())
		term.MustAppend(i, tm)
		doc.MustAppend(i, d)
		bel.MustAppend(i, b)
	}
	add(0, 10, 0.9)
	add(0, 11, 0.8)
	add(1, 10, 0.7)
	add(2, 12, 0.6)

	segs := []PostingsSeg{synthOfPairs(term, doc, bel).seg}
	beliefs, counts, err := GetBL(segs, []OID{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if beliefs.Len() != 3 {
		t.Fatalf("beliefs len = %d, want 3", beliefs.Len())
	}
	scores, err := SumBeliefs(beliefs, counts, 2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if scores.Len() != 2 {
		t.Fatalf("scored docs = %d, want 2", scores.Len())
	}
	s0, ok := scores.Find(OID(0))
	if !ok || math.Abs(s0.(float64)-1.7) > 1e-12 { // 0.9+0.8
		t.Fatalf("score(doc0) = %v", s0)
	}
	s1, _ := scores.Find(OID(1))
	if math.Abs(s1.(float64)-(0.7+0.4)) > 1e-12 {
		t.Fatalf("score(doc1) = %v", s1)
	}
	if _, ok := scores.Find(OID(2)); ok {
		t.Fatal("doc2 matches no query term and must not appear")
	}
}

func TestWSumBeliefs(t *testing.T) {
	term := NewDense(0, KindOID)
	doc := NewDense(0, KindOID)
	bel := NewDense(0, KindFloat)
	i := 0
	add := func(d, tm OID, b float64) {
		term.MustAppend(OID(i), tm)
		doc.MustAppend(OID(i), d)
		bel.MustAppend(OID(i), b)
		i++
	}
	add(0, 10, 0.9)
	add(1, 11, 0.6)
	segs := []PostingsSeg{synthOfPairs(term, doc, bel).seg}
	out, err := WSumBeliefs(segs, []OID{10, 11}, []float64{2, 1}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// doc0: 2*(0.9-0.4) + 3*0.4 = 1.0+1.2 = 2.2
	v, ok := out.Find(OID(0))
	if !ok || math.Abs(v.(float64)-2.2) > 1e-12 {
		t.Fatalf("wsum(doc0) = %v", v)
	}
	if _, err := WSumBeliefs(segs, []OID{10}, []float64{1, 2}, 0.4); err == nil {
		t.Fatal("weight length mismatch should error")
	}
}

func TestCrossProduct(t *testing.T) {
	a := mkDenseStr("x", "y")
	b := mkDenseInt(1, 2, 3)
	c, err := CrossProduct(a.Reverse(), b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 6 {
		t.Fatalf("cross len = %d", c.Len())
	}
}

// Property: reverse twice is identity on every BUN.
func TestPropReverseReverse(t *testing.T) {
	f := func(vals []int64) bool {
		b := New(KindOID, KindInt)
		for i, v := range vals {
			b.MustAppend(OID(i*3), v)
		}
		rr := b.Reverse().Reverse()
		for i := 0; i < b.Len(); i++ {
			if rr.Head.OIDAt(i) != b.Head.OIDAt(i) || rr.Tail.IntAt(i) != b.Tail.IntAt(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: semijoin(l, l) == l for key heads.
func TestPropSemiJoinSelf(t *testing.T) {
	f := func(vals []int16) bool {
		b := NewDense(0, KindInt)
		for i, v := range vals {
			b.MustAppend(OID(i), int64(v))
		}
		s, err := SemiJoin(b, b)
		if err != nil || s.Len() != b.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of group sums equals the scalar sum.
func TestPropPumpPartitionsSum(t *testing.T) {
	f := func(vals []uint8, cats []bool) bool {
		n := len(vals)
		if len(cats) < n {
			n = len(cats)
		}
		valB := NewDense(0, KindFloat)
		catB := NewDense(0, KindBool)
		for i := 0; i < n; i++ {
			valB.MustAppend(OID(i), float64(vals[i]))
			catB.MustAppend(OID(i), cats[i])
		}
		g, err := Group(catB)
		if err != nil {
			return false
		}
		per, err := PumpAggregate(AggSum, valB, g)
		if err != nil {
			return false
		}
		total, err := ScalarAggregate(AggSum, valB)
		if err != nil {
			return false
		}
		perTotal, err := ScalarAggregate(AggSum, per)
		if err != nil {
			return false
		}
		return math.Abs(total.(float64)-perTotal.(float64)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: select(v) ∪ selectNot(v) partitions the BAT.
func TestPropSelectPartition(t *testing.T) {
	f := func(vals []int8, pick int8) bool {
		b := NewDense(0, KindInt)
		for i, v := range vals {
			b.MustAppend(OID(i), int64(v))
		}
		s, err1 := Select(b, int64(pick))
		ns, err2 := SelectNot(b, int64(pick))
		if err1 != nil || err2 != nil {
			return false
		}
		return s.Len()+ns.Len() == b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	b := mkDenseFloat(0.5)
	s := b.String()
	if s == "" {
		t.Fatal("string render empty")
	}
	if FormatValue(OID(3)) != "3@0" {
		t.Fatalf("oid format = %s", FormatValue(OID(3)))
	}
	if FormatValue("x") != `"x"` {
		t.Fatalf("str format = %s", FormatValue("x"))
	}
	if FormatValue(true) != "true" || FormatValue(nil) != "nil" {
		t.Fatal("bool/nil format")
	}
}

func TestKindParsing(t *testing.T) {
	for _, name := range []string{"void", "oid", "int", "flt", "str", "bit"} {
		k, err := KindFromString(name)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("roundtrip %s -> %s", name, k.String())
		}
	}
	if _, err := KindFromString("blob"); err == nil {
		t.Fatal("unknown kind should error")
	}
}
