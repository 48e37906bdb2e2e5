package bat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Differential tests across processor counts: every operator runs once
// under GOMAXPROCS=1 and once under GOMAXPROCS=4 on randomized BATs across
// all Kind combinations (dense and materialised heads) and must produce
// BUN-for-BUN identical results, floats bit-for-bit — aggregations
// included. A query runs on one goroutine, so no operator result may
// depend on the processor count; the largest inputs sit above 8 192 BUNs,
// where a BUN-partitioned kernel would reassociate float sums.
//
// The whole file runs under -race in CI.

// atProcs runs f with GOMAXPROCS set to procs and restores the old value.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// checkDiff asserts op agrees with itself at GOMAXPROCS 1 and 4 (results
// or errors).
func checkDiff(t *testing.T, name string, op func() (*BAT, error)) {
	t.Helper()
	var one, four *BAT
	var oneErr, fourErr error
	atProcs(1, func() { one, oneErr = op() })
	atProcs(4, func() { four, fourErr = op() })
	if (oneErr == nil) != (fourErr == nil) {
		t.Fatalf("%s: GOMAXPROCS=1 err=%v GOMAXPROCS=4 err=%v", name, oneErr, fourErr)
	}
	if oneErr != nil {
		if oneErr.Error() != fourErr.Error() {
			t.Fatalf("%s: error mismatch: %q vs %q", name, oneErr, fourErr)
		}
		return
	}
	assertSameBAT(t, name, one, four)
}

func assertSameBAT(t *testing.T, name string, want, got *BAT) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: length %d vs %d\nwant: %v\ngot:  %v", name, want.Len(), got.Len(), want, got)
	}
	if mk := materialKind(want.Head.Kind()); mk != materialKind(got.Head.Kind()) {
		t.Fatalf("%s: head kind %s vs %s", name, want.Head.Kind(), got.Head.Kind())
	}
	if mk := materialKind(want.Tail.Kind()); mk != materialKind(got.Tail.Kind()) {
		t.Fatalf("%s: tail kind %s vs %s", name, want.Tail.Kind(), got.Tail.Kind())
	}
	for i := 0; i < want.Len(); i++ {
		if !sameValue(want.Head.Get(i), got.Head.Get(i)) {
			t.Fatalf("%s: head BUN %d: %v vs %v", name, i, want.Head.Get(i), got.Head.Get(i))
		}
		if !sameValue(want.Tail.Get(i), got.Tail.Get(i)) {
			t.Fatalf("%s: tail BUN %d: %v vs %v", name, i, want.Tail.Get(i), got.Tail.Get(i))
		}
	}
}

// sameValue compares boxed atoms; floats compare bitwise.
func sameValue(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return a == b
}

// diffValue generates a random atom of kind k from a small domain (to force
// duplicates). Floats occasionally emit NaN to pin down NaN group/hash
// semantics.
func diffValue(r *rand.Rand, k Kind, i int) any {
	switch k {
	case KindVoid:
		return OID(i)
	case KindOID:
		return OID(r.Intn(40))
	case KindInt:
		return int64(r.Intn(60) - 30)
	case KindFloat:
		if r.Intn(50) == 0 {
			return math.NaN()
		}
		return float64(r.Intn(64)) / 4
	case KindStr:
		return fmt.Sprintf("s%d", r.Intn(30))
	case KindBool:
		return r.Intn(2) == 0
	}
	panic("bad kind")
}

// diffBAT builds a random BAT with the given head/tail kinds.
func diffBAT(r *rand.Rand, hk, tk Kind, n int) *BAT {
	b := New(hk, tk)
	for i := 0; i < n; i++ {
		b.MustAppend(diffValue(r, hk, i), diffValue(r, tk, i))
	}
	return b
}

var diffKinds = []Kind{KindVoid, KindOID, KindInt, KindFloat, KindStr, KindBool}

func TestParDiffSelectFamily(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, hk := range diffKinds {
		for _, tk := range diffKinds {
			for _, n := range []int{0, 1, 17, 501, 2048} {
				b := diffBAT(r, hk, tk, n)
				v := diffValue(r, tk, n/2)
				lo, hi := diffValue(r, tk, 1), diffValue(r, tk, n/3+1)
				tag := fmt.Sprintf("[%s,%s]#%d", hk, tk, n)
				checkDiff(t, "select "+tag, func() (*BAT, error) { return Select(b, v) })
				checkDiff(t, "select_not "+tag, func() (*BAT, error) { return SelectNot(b, v) })
				checkDiff(t, "select_range "+tag, func() (*BAT, error) { return SelectRange(b, lo, hi) })
				checkDiff(t, "uselect "+tag, func() (*BAT, error) { return USelect(b, v) })
				checkDiff(t, "uselect_range "+tag, func() (*BAT, error) { return USelectRange(b, lo, hi) })
				if tk == KindStr {
					checkDiff(t, "like_select "+tag, func() (*BAT, error) { return LikeSelect(b, "s1") })
				}
			}
		}
	}
}

func TestParDiffJoin(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tk := range diffKinds {
		for _, rtk := range []Kind{KindOID, KindInt, KindFloat, KindStr} {
			for _, n := range []int{0, 33, 700, 2400} {
				l := diffBAT(r, KindOID, tk, n)
				rr := diffBAT(r, materialKind(tk), rtk, n/2+5)
				tag := fmt.Sprintf("[oid,%s]⋈[%s,%s]#%d", tk, materialKind(tk), rtk, n)
				checkDiff(t, "join "+tag, func() (*BAT, error) { return Join(l, rr) })

				// dense-head r: the positional fast path
				rd := NewDense(3, rtk)
				for i := 0; i < n/2+5; i++ {
					rd.MustAppend(OID(3+i), diffValue(r, rtk, i))
				}
				if tk == KindOID || tk == KindVoid {
					checkDiff(t, "join-dense "+tag, func() (*BAT, error) { return Join(l, rd) })
					ld := diffBAT(r, KindVoid, tk, n)
					checkDiff(t, "join-dense-void "+tag, func() (*BAT, error) { return Join(ld, rd) })
				}
			}
		}
	}
	// type mismatch must yield the identical error on both paths
	l := diffBAT(r, KindOID, KindStr, 3000)
	rr := diffBAT(r, KindInt, KindFloat, 100)
	checkDiff(t, "join-mismatch", func() (*BAT, error) { return Join(l, rr) })
}

func TestParDiffSemiJoinDiff(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, hk := range diffKinds {
		for _, n := range []int{0, 50, 900, 2100} {
			l := diffBAT(r, hk, KindInt, n)
			rhs := diffBAT(r, materialKind(hk), KindFloat, n/3+2)
			tag := fmt.Sprintf("[%s]#%d", hk, n)
			checkDiff(t, "semijoin "+tag, func() (*BAT, error) { return SemiJoin(l, rhs) })
			checkDiff(t, "kdiff "+tag, func() (*BAT, error) { return Diff(l, rhs) })
			checkDiff(t, "kintersect "+tag, func() (*BAT, error) { return Intersect(l, rhs) })

			// dense rhs: arithmetic membership
			rd := NewDense(5, KindFloat)
			for i := 0; i < n/4+1; i++ {
				rd.MustAppend(OID(5+i), float64(i))
			}
			if hk == KindOID || hk == KindVoid {
				checkDiff(t, "semijoin-dense "+tag, func() (*BAT, error) { return SemiJoin(l, rd) })
				checkDiff(t, "kdiff-dense "+tag, func() (*BAT, error) { return Diff(l, rd) })
			}
		}
	}
}

func TestParDiffGroup(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, tk := range diffKinds {
		for _, n := range []int{0, 1, 64, 999, 2500} {
			b := diffBAT(r, KindVoid, tk, n)
			tag := fmt.Sprintf("[void,%s]#%d", tk, n)
			checkDiff(t, "group "+tag, func() (*BAT, error) { return Group(b) })
			bm := diffBAT(r, KindOID, tk, n)
			checkDiff(t, "group-mat "+tag, func() (*BAT, error) { return Group(bm) })
		}
	}
}

func TestParDiffPumpAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	aggs := []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg, AggProd}
	for _, tk := range []Kind{KindInt, KindFloat, KindOID, KindBool, KindVoid} {
		for _, n := range []int{0, 40, 800, 2600, 9000} {
			vals := diffBAT(r, KindVoid, tk, n)
			grp, err := Group(diffBAT(r, KindVoid, KindOID, n))
			if err != nil {
				t.Fatal(err)
			}
			for _, agg := range aggs {
				tag := fmt.Sprintf("%s[%s]#%d", agg, tk, n)
				checkDiff(t, "pump "+tag, func() (*BAT, error) { return PumpAggregate(agg, vals, grp) })
			}
		}
	}
	// non-numeric tails: count works, everything else errors identically
	strs := diffBAT(r, KindVoid, KindStr, 3000)
	grp, _ := Group(diffBAT(r, KindVoid, KindOID, 3000))
	checkDiff(t, "pump count str", func() (*BAT, error) { return PumpAggregate(AggCount, strs, grp) })
	checkDiff(t, "pump sum str", func() (*BAT, error) { return PumpAggregate(AggSum, strs, grp) })
}

func TestParDiffHistogramUnique(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, tk := range []Kind{KindInt, KindStr, KindOID, KindBool} {
		for _, n := range []int{0, 77, 1500} {
			b := diffBAT(r, KindVoid, tk, n)
			tag := fmt.Sprintf("[%s]#%d", tk, n)
			checkDiff(t, "histogram "+tag, func() (*BAT, error) { return Histogram(b) })
			bm := diffBAT(r, KindOID, tk, n)
			checkDiff(t, "unique "+tag, func() (*BAT, error) { return Unique(bm) })
		}
	}
}

func TestParDiffCalc(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	binOps := []string{"+", "-", "*", "/", "min", "max", "pow", "==", "!=", "<", "<=", ">", ">="}
	for _, tk := range []Kind{KindInt, KindFloat, KindOID, KindBool} {
		for _, n := range []int{0, 100, 2048} {
			a := diffBAT(r, KindVoid, tk, n)
			b := diffBAT(r, KindVoid, tk, n)
			for _, op := range binOps {
				tag := fmt.Sprintf("[%s](%s)#%d", op, tk, n)
				checkDiff(t, "multiplex "+tag, func() (*BAT, error) { return Multiplex(op, a, b) })
				checkDiff(t, "multiplex_const "+tag, func() (*BAT, error) { return MultiplexConst(op, a, 3.5, true) })
				checkDiff(t, "multiplex_constl "+tag, func() (*BAT, error) { return MultiplexConst(op, a, 2.0, false) })
			}
			for _, fn := range []string{"log", "exp", "sqrt", "abs", "neg"} {
				checkDiff(t, "multiplex_unary "+fn, func() (*BAT, error) { return MultiplexUnary(fn, a) })
			}
		}
	}
	// strings
	for _, n := range []int{0, 150, 2048} {
		a := diffBAT(r, KindVoid, KindStr, n)
		b := diffBAT(r, KindVoid, KindStr, n)
		for _, op := range []string{"+", "==", "<", ">="} {
			checkDiff(t, "multiplex-str "+op, func() (*BAT, error) { return Multiplex(op, a, b) })
			checkDiff(t, "multiplex-str-const "+op, func() (*BAT, error) { return MultiplexConst(op, a, "s7", true) })
		}
	}
	// bools
	a := diffBAT(r, KindVoid, KindBool, 2048)
	b := diffBAT(r, KindVoid, KindBool, 2048)
	for _, op := range []string{"and", "or", "==", "!="} {
		checkDiff(t, "multiplex-bit "+op, func() (*BAT, error) { return Multiplex(op, a, b) })
	}
	checkDiff(t, "multiplex-not", func() (*BAT, error) { return MultiplexUnary("not", a) })
}

// synthContrep builds a CONTREP's postings from random (term, doc,
// belief) pairs, as one block segment.
func synthContrep(r *rand.Rand, pairs, terms, docs int) (segs []PostingsSeg, query []OID) {
	term := NewDense(0, KindOID)
	doc := NewDense(0, KindOID)
	bel := NewDense(0, KindFloat)
	for i := 0; i < pairs; i++ {
		term.MustAppend(OID(i), OID(r.Intn(terms)))
		doc.MustAppend(OID(i), OID(r.Intn(docs)))
		bel.MustAppend(OID(i), 0.05+float64(r.Intn(90))/100)
	}
	for q := 0; q < 4; q++ {
		query = append(query, OID(r.Intn(terms)))
	}
	return []PostingsSeg{synthOfPairs(term, doc, bel).seg}, query
}

func TestParDiffGetBLSumBeliefsFill(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, pairs := range []int{0, 120, 2500, 6000, 40000} {
		terms := 50
		if pairs > 10000 {
			terms = 8 // a 4-term query then matches well over 8 192 BUNs
		}
		segs, query := synthContrep(r, pairs, terms, pairs/4+7)

		var oneB, oneC, fourB, fourC *BAT
		var oneErr, fourErr error
		atProcs(1, func() { oneB, oneC, oneErr = GetBL(segs, query) })
		atProcs(4, func() { fourB, fourC, fourErr = GetBL(segs, query) })
		if oneErr != nil || fourErr != nil {
			t.Fatalf("getbl: %v / %v", oneErr, fourErr)
		}
		assertSameBAT(t, "getbl beliefs", oneB, fourB)
		assertSameBAT(t, "getbl counts", oneC, fourC)

		checkDiff(t, "sumbeliefs", func() (*BAT, error) {
			b, c, err := GetBL(segs, query)
			if err != nil {
				return nil, err
			}
			return SumBeliefs(b, c, len(query), 0.4)
		})

		// Fill: scores over a dense domain (the fast float path)
		domain := &BAT{Head: NewVoid(0, pairs/4+7), Tail: NewVoid(0, pairs/4+7)}
		domain.HSorted, domain.HKey = true, true
		checkDiff(t, "fill", func() (*BAT, error) {
			b, c, err := GetBL(segs, query)
			if err != nil {
				return nil, err
			}
			s, err := SumBeliefs(b, c, len(query), 0.4)
			if err != nil {
				return nil, err
			}
			return Fill(s, domain, 1.6)
		})
	}
}

// TestParPoolConcurrentOperators drives one operator from many goroutines
// at once, the way concurrent queries share a store's BATs: the lazily
// built hash index of the shared probe side must neither deadlock nor
// race (the latter is checked by -race in CI).
func TestParPoolConcurrentOperators(t *testing.T) {
	mk := func() (l, r *BAT) {
		rng := rand.New(rand.NewSource(41))
		return diffBAT(rng, KindVoid, KindOID, 4000), diffBAT(rng, KindOID, KindFloat, 1500)
	}
	want, err := Join(mk())
	if err != nil {
		t.Fatal(err)
	}
	l, rr := mk() // fresh BATs: the goroutines race to build rr's hash index
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				got, err := Join(l, rr)
				if err != nil {
					errs[g] = err
					return
				}
				if got.Len() != want.Len() {
					errs[g] = fmt.Errorf("len %d want %d", got.Len(), want.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
