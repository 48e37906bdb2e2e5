package bat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// segSplit cuts a synthIndex's document space at the given boundaries
// (ascending, exclusive ends; the last boundary must be ndocs) and builds
// one PostingsSeg per slice. Segments may be built against different
// dictionary sizes (tail segments see the full dictionary, earlier ones a
// prefix) to mirror incremental publishes that predate later terms.
func segSplit(si *synthIndex, bounds []int, shrinkDicts bool) []PostingsSeg {
	segs := make([]PostingsSeg, 0, len(bounds))
	lo := 0
	for segIdx, hi := range bounds {
		nterms := si.nterms
		if shrinkDicts && segIdx == 0 {
			// First segment published before the last term existed — but
			// only when no document in it uses the last term.
			uses := false
			for d := lo; d < hi; d++ {
				if _, ok := si.perDoc[d][OID(si.nterms-1)]; ok {
					uses = true
				}
			}
			if !uses {
				nterms = si.nterms - 1
			}
		}
		segs = append(segs, si.encodeRange(lo, hi, nterms))
		lo = hi
	}
	return segs
}

// mustEqualRanking fails unless two rankings agree BUN for BUN, scores
// bit-for-bit included.
func mustEqualRanking(t *testing.T, label string, want, got *BAT) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d vs %d hits", label, want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Head.OIDAt(i) != got.Head.OIDAt(i) || want.Tail.FloatAt(i) != got.Tail.FloatAt(i) {
			t.Fatalf("%s hit %d: want (%d,%v) got (%d,%v)", label, i,
				want.Head.OIDAt(i), want.Tail.FloatAt(i),
				got.Head.OIDAt(i), got.Tail.FloatAt(i))
		}
	}
}

// TestPrunedTopKSegsMatchesMerged pins the segment-list operator's
// differential guarantee: scanning any segmentation of the document space
// returns BUN-for-BUN (ties included) the exhaustive reference — and so
// does the single merged segment — for random corpora with manufactured
// ties, duplicate and OOV query terms, unweighted (domain fill) and
// weighted modes, and segments whose dictionaries predate later terms.
// Seed 11 is the corpus stream of the former raw-vs-block differential.
func TestPrunedTopKSegsMatchesMerged(t *testing.T) {
	const def = 0.4
	for _, seed := range []int64{7, 11} {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 60; round++ {
			ndocs := 1 + rng.Intn(300)
			nterms := 2 + rng.Intn(30)
			si := mkSynthIndex(rng, nterms, ndocs, 6, 3)

			// random segmentation: 1..5 cuts
			nseg := 1 + rng.Intn(5)
			cuts := map[int]bool{ndocs: true}
			for len(cuts) < nseg {
				cuts[1+rng.Intn(ndocs)] = true
			}
			var bounds []int
			for c := range cuts {
				bounds = append(bounds, c)
			}
			sort.Ints(bounds)
			segs := segSplit(si, bounds, rng.Intn(2) == 0)

			k := 1 + rng.Intn(ndocs+3)
			qlen := 1 + rng.Intn(5)
			query := make([]OID, qlen)
			for i := range query {
				query[i] = OID(rng.Intn(nterms + 2)) // may exceed dict: OOV
			}
			var weights []float64
			if rng.Intn(2) == 0 {
				weights = make([]float64, qlen)
				for i := range weights {
					weights[i] = float64(rng.Intn(4))
				}
			}

			label := fmt.Sprintf("seed %d round %d", seed, round)
			merged, err := si.scan(query, weights, def, k, si.domain, nil)
			if err != nil {
				t.Fatalf("%s: merged: %v", label, err)
			}
			mustEqualRef(t, label+" merged", si, query, weights, def, k, merged)
			got, err := PrunedTopKSegs(segs, query, weights, def, k, si.domain, nil)
			if err != nil {
				t.Fatalf("%s: segmented: %v", label, err)
			}
			mustEqualRef(t, fmt.Sprintf("%s (%d segs)", label, len(segs)), si, query, weights, def, k, got)
		}
	}
}

// TestPrunedTopKSegsValidation keeps malformed segment input an error,
// never a panic (the MIL surface feeds this operator arbitrary programs).
func TestPrunedTopKSegsValidation(t *testing.T) {
	if _, err := PrunedTopKSegs(nil, []OID{0}, nil, 0.4, 3, New(KindVoid, KindVoid), nil); err == nil {
		t.Fatal("empty segment list accepted")
	}
	rng := rand.New(rand.NewSource(1))
	si := mkSynthIndex(rng, 4, 10, 3, 0)
	bad := si.seg
	bad.Start = si.seg.MaxBel // wrong kind
	if _, err := PrunedTopKSegs([]PostingsSeg{bad}, []OID{0}, nil, 0.4, 3, si.domain, nil); err == nil {
		t.Fatal("malformed segment accepted")
	}
	// a legacy raw-layout segment carries only the offsets and bounds
	legacy := PostingsSeg{Start: si.seg.Start, MaxBel: si.seg.MaxBel}
	if _, err := PrunedTopKSegs([]PostingsSeg{legacy}, []OID{0}, nil, 0.4, 3, si.domain, nil); err == nil {
		t.Fatal("segment without block columns accepted")
	}
}
