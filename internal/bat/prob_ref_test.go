package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The pair-fed reference of the exhaustive operators: GetBL,
// WSumBeliefs and GetBLPairs as they read a CONTREP's pair-order columns
// — [pair, term] reversed into a head-hashed [term, pair] index, and the
// aligned [pair, doc] / [pair, belief] columns — before the store kept
// its beliefs only in the block segments. FuzzExhaustiveSegs and the
// pruned operator's exhaustive references check against it.

func pairGetBL(revTerm, doc, belief *BAT, query []OID) (beliefs, counts *BAT, err error) {
	if doc.Len() != belief.Len() || doc.Len() != revTerm.Len() {
		return nil, nil, fmt.Errorf("misaligned contrep columns (%d/%d/%d)", revTerm.Len(), doc.Len(), belief.Len())
	}
	revHash := revTerm.ensureHash()
	beliefs = New(KindOID, KindFloat)
	for _, q := range query {
		for _, p := range revHash.positions(revTerm.Head, q) {
			beliefs.Head.oids = append(beliefs.Head.oids, doc.Tail.OIDAt(p))
			beliefs.Tail.flts = append(beliefs.Tail.flts, belief.Tail.flts[p])
		}
	}
	return beliefs, matchCounts(beliefs.Head.oids), nil
}

func pairWSumBeliefs(revTerm, doc, belief *BAT, query []OID, weights []float64, def float64) (*BAT, error) {
	if len(query) != len(weights) {
		return nil, fmt.Errorf("%d terms vs %d weights", len(query), len(weights))
	}
	revHash := revTerm.ensureHash()
	var wtot float64
	for _, w := range weights {
		wtot += w
	}
	sums := make(map[OID]float64)
	var order []OID
	for qi, q := range query {
		for _, p := range revHash.positions(revTerm.Head, q) {
			d := doc.Tail.OIDAt(p)
			if _, seen := sums[d]; !seen {
				order = append(order, d)
			}
			sums[d] += weights[qi] * (belief.Tail.flts[p] - def)
		}
	}
	out := New(KindOID, KindFloat)
	for _, d := range order {
		out.Head.oids = append(out.Head.oids, d)
		out.Tail.flts = append(out.Tail.flts, sums[d]+wtot*def)
	}
	out.HKey = true
	return out, nil
}

func pairGetBLPairs(revTerm, doc, belief *BAT, query []OID, def float64, domain *BAT) (*BAT, error) {
	revHash := revTerm.ensureHash()
	type key struct {
		d OID
		q int
	}
	matched := make(map[key]float64)
	for qi, q := range query {
		for _, p := range revHash.positions(revTerm.Head, q) {
			matched[key{doc.Tail.OIDAt(p), qi}] = belief.Tail.flts[p]
		}
	}
	out := New(KindOID, KindFloat)
	for i := 0; i < domain.Len(); i++ {
		d := domain.Head.OIDAt(i)
		for qi := range query {
			b, ok := matched[key{d, qi}]
			if !ok {
				b = def
			}
			out.Head.oids = append(out.Head.oids, d)
			out.Tail.flts = append(out.Tail.flts, b)
		}
	}
	return out, nil
}

// synthOfPairs turns pair-order CONTREP columns (one BUN per (doc, term)
// posting) into a synthetic index, whose seg holds them as one block
// segment.
func synthOfPairs(term, doc, bel *BAT) *synthIndex {
	si := &synthIndex{}
	for i := 0; i < term.Len(); i++ {
		si.nterms = max(si.nterms, int(term.Tail.OIDAt(i))+1)
		si.ndocs = max(si.ndocs, int(doc.Tail.OIDAt(i))+1)
	}
	si.perDoc = make([]map[OID]float64, si.ndocs)
	for d := range si.perDoc {
		si.perDoc[d] = map[OID]float64{}
	}
	for i := 0; i < term.Len(); i++ {
		si.perDoc[doc.Tail.OIDAt(i)][term.Tail.OIDAt(i)] = bel.Tail.FloatAt(i)
	}
	si.seg = si.encodeRange(0, si.ndocs, si.nterms)
	return si
}

// sameBits reports the first difference between two [oid, flt|int] BATs,
// floats compared bit for bit.
func sameBits(want, got *BAT) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("%d BUNs, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Head.OIDAt(i) != got.Head.OIDAt(i) {
			return fmt.Errorf("BUN %d: head %d, want %d", i, got.Head.OIDAt(i), want.Head.OIDAt(i))
		}
		switch want.Tail.Kind() {
		case KindFloat:
			if math.Float64bits(want.Tail.FloatAt(i)) != math.Float64bits(got.Tail.FloatAt(i)) {
				return fmt.Errorf("BUN %d: %v, want %v", i, got.Tail.FloatAt(i), want.Tail.FloatAt(i))
			}
		default:
			if want.Tail.Get(i) != got.Tail.Get(i) {
				return fmt.Errorf("BUN %d: %v, want %v", i, got.Tail.Get(i), want.Tail.Get(i))
			}
		}
	}
	return nil
}

// FuzzExhaustiveSegs: the block-fed exhaustive operators — GetBL with
// SumBeliefs, WSumBeliefs and GetBLPairs over several segments — return
// exactly what the pair-fed reference returns over the same postings, BUN
// for BUN and bit for bit. The query (one byte per term) repeats terms
// and names terms without postings or beyond every dictionary; the
// weights (eight bytes each, cycled) include zero, NaN, infinite and huge
// values.
func FuzzExhaustiveSegs(f *testing.F) {
	wbits := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(int64(1), uint8(8), uint8(40), uint8(4), []byte{0, 1, 1, 7, 9}, wbits(1, 0, 2.5))
	f.Add(int64(2), uint8(3), uint8(200), uint8(6), []byte{2, 2, 2}, wbits(math.NaN(), 1e300))
	f.Add(int64(3), uint8(12), uint8(90), uint8(1), []byte{}, wbits(math.Inf(1)))
	f.Add(int64(4), uint8(1), uint8(5), uint8(3), []byte{0, 1, 2, 3}, wbits(-1, 1e-300, 0))
	f.Fuzz(func(t *testing.T, seed int64, nterms, ndocs, maxSegs uint8, qraw, wraw []byte) {
		const def = 0.4
		rng := rand.New(rand.NewSource(seed))
		nt, nd := 1+int(nterms)%32, 1+int(ndocs)
		si := mkSynthIndex(rng, nt, nd, 1+rng.Intn(6), rng.Intn(4))
		segs := segSplit(si, randomCut(rng, nd, 1+int(maxSegs)%8), rng.Intn(2) == 0)
		rev, doc, bel := si.columns()
		query := make([]OID, min(len(qraw), 16))
		for i := range query {
			query[i] = OID(int(qraw[i]) % (nt + 3))
		}
		weights := make([]float64, len(query))
		if n := len(wraw) / 8; n > 0 {
			for i := range weights {
				weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(wraw[8*(i%n):]))
			}
		}

		wantB, wantC, err := pairGetBL(rev, doc, bel, query)
		if err != nil {
			t.Fatal(err)
		}
		gotB, gotC, err := GetBL(segs, query)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(wantB, gotB); err != nil {
			t.Fatalf("getBL beliefs: %v", err)
		}
		if err := sameBits(wantC, gotC); err != nil {
			t.Fatalf("getBL counts: %v", err)
		}
		wantS, err := SumBeliefs(wantB, wantC, len(query), def)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := SumBeliefs(gotB, gotC, len(query), def)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(wantS, gotS); err != nil {
			t.Fatalf("sumBeliefs: %v", err)
		}

		wantW, err := pairWSumBeliefs(rev, doc, bel, query, weights, def)
		if err != nil {
			t.Fatal(err)
		}
		gotW, err := WSumBeliefs(segs, query, weights, def)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(wantW, gotW); err != nil {
			t.Fatalf("wsum_bel: %v", err)
		}

		wantP, err := pairGetBLPairs(rev, doc, bel, query, def, si.domain)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := GetBLPairs(segs, query, def, si.domain)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(wantP, gotP); err != nil {
			t.Fatalf("getbl_pairs: %v", err)
		}
	})
}
