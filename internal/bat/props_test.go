package bat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randBAT builds a BAT with oid heads and int tails from fuzz input.
func randBAT(heads []uint16, tails []int16) *BAT {
	n := len(heads)
	if len(tails) < n {
		n = len(tails)
	}
	b := New(KindOID, KindInt)
	for i := 0; i < n; i++ {
		b.MustAppend(OID(heads[i]), int64(tails[i]))
	}
	return b
}

// Property: |semijoin(l, r)| + |diff(l, r)| == |l|.
func TestPropSemiJoinDiffPartition(t *testing.T) {
	f := func(lh, rh []uint16, lt, rt []int16) bool {
		l := randBAT(lh, lt)
		r := randBAT(rh, rt)
		s, err1 := SemiJoin(l, r)
		d, err2 := Diff(l, r)
		if err1 != nil || err2 != nil {
			return false
		}
		return s.Len()+d.Len() == l.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union(l, r) has every l BUN plus the r BUNs whose head is new;
// its head set is the union of both head sets.
func TestPropUnionCardinality(t *testing.T) {
	f := func(lh, rh []uint16, lt, rt []int16) bool {
		l := randBAT(lh, lt)
		r := randBAT(rh, rt)
		u, err := Union(l, r)
		if err != nil {
			return false
		}
		d, err := Diff(r, l)
		if err != nil {
			return false
		}
		return u.Len() == l.Len()+d.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TSort yields a sorted permutation of the input.
func TestPropTSortPermutation(t *testing.T) {
	f := func(tails []int16) bool {
		b := NewDense(0, KindInt)
		for i, v := range tails {
			b.MustAppend(OID(i), int64(v))
		}
		s, err := TSort(b)
		if err != nil || s.Len() != b.Len() {
			return false
		}
		counts := map[int64]int{}
		for i := 0; i < b.Len(); i++ {
			counts[b.Tail.IntAt(i)]++
			counts[s.Tail.IntAt(i)]--
		}
		for i := 1; i < s.Len(); i++ {
			if s.Tail.IntAt(i-1) > s.Tail.IntAt(i) {
				return false
			}
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: join through a mirror is identity on key-headed BATs.
func TestPropJoinMirrorIdentity(t *testing.T) {
	f := func(tails []int16) bool {
		b := NewDense(0, KindInt)
		for i, v := range tails {
			b.MustAppend(OID(i), int64(v))
		}
		j, err := Join(b.Mirror(), b)
		if err != nil || j.Len() != b.Len() {
			return false
		}
		for i := 0; i < b.Len(); i++ {
			if j.Tail.IntAt(i) != b.Tail.IntAt(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Fill over a domain always yields exactly one BUN per distinct
// domain head present, and never loses an in-domain BUN of b.
func TestPropFillCovers(t *testing.T) {
	f := func(scoreHeads []uint8, domSize uint8) bool {
		b := New(KindOID, KindFloat)
		seen := map[OID]bool{}
		for _, h := range scoreHeads {
			o := OID(h % 32)
			if seen[o] {
				continue
			}
			seen[o] = true
			b.MustAppend(o, 0.5)
		}
		n := int(domSize%32) + 1
		domain := New(KindVoid, KindVoid)
		for i := 0; i < n; i++ {
			domain.MustAppend(OID(i), OID(i))
		}
		out, err := Fill(b, domain, 0.1)
		if err != nil {
			return false
		}
		return out.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFillEmitsDomainOrder pins Fill's order on both paths (float tails
// take the positional fast path, int tails the hashed one): matched and
// filled BUNs interleave in domain order, a duplicated head of b keeps
// all its BUNs, so two fills over one domain align for [op](a, b).
func TestFillEmitsDomainOrder(t *testing.T) {
	domain := New(KindVoid, KindVoid)
	for i := 0; i < 5; i++ {
		domain.MustAppend(OID(i), OID(i))
	}
	flt := New(KindOID, KindFloat)
	flt.MustAppend(OID(3), 0.5)
	flt.MustAppend(OID(1), 0.25)
	flt.MustAppend(OID(9), 0.75) // outside the domain: dropped
	ints := New(KindOID, KindInt)
	ints.MustAppend(OID(3), int64(7))
	ints.MustAppend(OID(1), int64(5))
	ints.MustAppend(OID(3), int64(8))
	for _, tc := range []struct {
		b     *BAT
		fill  any
		heads []OID
		tails []any
	}{
		{flt, 0.0, []OID{0, 1, 2, 3, 4}, []any{0.0, 0.25, 0.0, 0.5, 0.0}},
		{ints, int64(0), []OID{0, 1, 2, 3, 3, 4}, []any{int64(0), int64(5), int64(0), int64(7), int64(8), int64(0)}},
	} {
		out, err := Fill(tc.b, domain, tc.fill)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != len(tc.heads) {
			t.Fatalf("%s fill: %d BUNs, want %d", tc.b.Tail.Kind(), out.Len(), len(tc.heads))
		}
		for i := range tc.heads {
			if out.Head.OIDAt(i) != tc.heads[i] || out.Tail.Get(i) != tc.tails[i] {
				t.Fatalf("%s fill BUN %d: (%d, %v), want (%d, %v)", tc.b.Tail.Kind(), i, out.Head.OIDAt(i), out.Tail.Get(i), tc.heads[i], tc.tails[i])
			}
		}
	}
}

// Property: dense-path GetBL agrees with a naive per-document scan.
func TestPropGetBLMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 1 + rng.Intn(20)
		nTerms := 1 + rng.Intn(10)
		term := NewDense(0, KindOID)
		doc := NewDense(0, KindOID)
		bel := NewDense(0, KindFloat)
		type pk struct{ d, t OID }
		truth := map[pk]float64{}
		i := 0
		for d := 0; d < nDocs; d++ {
			for tm := 0; tm < nTerms; tm++ {
				if rng.Float64() < 0.3 {
					v := rng.Float64()
					term.MustAppend(OID(i), OID(tm))
					doc.MustAppend(OID(i), OID(d))
					bel.MustAppend(OID(i), v)
					truth[pk{OID(d), OID(tm)}] = v
					i++
				}
			}
		}
		query := []OID{0, OID(nTerms / 2)}
		beliefs, counts, err := GetBL([]PostingsSeg{synthOfPairs(term, doc, bel).seg}, query)
		if err != nil {
			return false
		}
		scores, err := SumBeliefs(beliefs, counts, len(query), 0.4)
		if err != nil {
			return false
		}
		for d := 0; d < nDocs; d++ {
			var want float64
			matched := 0
			for _, q := range query {
				if v, ok := truth[pk{OID(d), q}]; ok {
					want += v
					matched++
				}
			}
			if matched == 0 {
				if _, ok := scores.Find(OID(d)); ok {
					return false // non-matching docs must be absent
				}
				continue
			}
			want += float64(len(query)-matched) * 0.4
			got, ok := scores.Find(OID(d))
			if !ok {
				return false
			}
			diff := got.(float64) - want
			if diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: GetBLPairs emits exactly |domain|·|query| BUNs grouped by doc.
func TestPropGetBLPairsShape(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 1 + rng.Intn(12)
		term := NewDense(0, KindOID)
		doc := NewDense(0, KindOID)
		bel := NewDense(0, KindFloat)
		i := 0
		for d := 0; d < nDocs; d++ {
			if rng.Intn(2) == 0 {
				term.MustAppend(OID(i), OID(0))
				doc.MustAppend(OID(i), OID(d))
				bel.MustAppend(OID(i), 0.8)
				i++
			}
		}
		domain := New(KindVoid, KindVoid)
		for d := 0; d < nDocs; d++ {
			domain.MustAppend(OID(d), OID(d))
		}
		query := []OID{0, 1, 2}
		pairs, err := GetBLPairs([]PostingsSeg{synthOfPairs(term, doc, bel).seg}, query, 0.4, domain)
		if err != nil {
			return false
		}
		return pairs.Len() == nDocs*len(query)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJoinDense(b *testing.B) {
	l := New(KindOID, KindOID)
	r := NewDense(0, KindFloat)
	for i := 0; i < 10000; i++ {
		l.MustAppend(OID(i), OID((i*7)%10000))
		r.MustAppend(OID(i), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinHash(b *testing.B) {
	l := NewDense(0, KindStr)
	r := New(KindStr, KindInt)
	for i := 0; i < 10000; i++ {
		s := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		l.MustAppend(OID(i), s)
		if i%10 == 0 {
			r.MustAppend(s, int64(i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectRange(b *testing.B) {
	bt := NewDense(0, KindFloat)
	for i := 0; i < 100000; i++ {
		bt.MustAppend(OID(i), float64(i%1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectRange(bt, 100.0, 200.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPumpByHead(b *testing.B) {
	bt := New(KindOID, KindFloat)
	for i := 0; i < 50000; i++ {
		bt.MustAppend(OID(i%1000), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PumpByHead(AggSum, bt); err != nil {
			b.Fatal(err)
		}
	}
}
