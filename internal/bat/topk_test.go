package bat

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// synthIndex is a term-ordered postings fixture mirroring what CONTREP's
// Finalize derives: the whole corpus as one block segment (through the
// one encoder, like every production segment) plus the per-document
// beliefs the exhaustive reference scores from.
type synthIndex struct {
	nterms, ndocs int
	seg           PostingsSeg
	domain        *BAT
	// perDoc[d][t] = belief of term t in doc d (absent → unmatched)
	perDoc []map[OID]float64
}

// mkSynthIndex generates a random corpus. dupEvery > 0 duplicates every
// dupEvery-th document's postings from its predecessor, manufacturing
// exactly tied scores; belief values are drawn from a tiny set so unrelated
// ties happen too.
func mkSynthIndex(rng *rand.Rand, nterms, ndocs, maxTermsPerDoc, dupEvery int) *synthIndex {
	const def = 0.4
	beliefLevels := []float64{def, 0.41, 0.55, 0.75, 0.97}
	si := &synthIndex{nterms: nterms, ndocs: ndocs, perDoc: make([]map[OID]float64, ndocs)}
	for d := 0; d < ndocs; d++ {
		m := map[OID]float64{}
		if dupEvery > 0 && d > 0 && d%dupEvery == 0 {
			for t, b := range si.perDoc[d-1] {
				m[t] = b
			}
		} else {
			for i := 0; i < rng.Intn(maxTermsPerDoc+1); i++ {
				t := OID(rng.Intn(nterms))
				m[t] = beliefLevels[rng.Intn(len(beliefLevels))]
			}
		}
		si.perDoc[d] = m
	}
	si.seg = si.encodeRange(0, ndocs, nterms)
	si.domain = New(KindVoid, KindVoid)
	for d := 0; d < ndocs; d++ {
		si.domain.MustAppend(OID(d), OID(d))
	}
	return si
}

// encodeRange scatters documents [lo, hi) into term-ordered postings over
// the first nterms dictionary entries and encodes them as one block
// segment — what a segment (or a shard) covering that document range
// holds, with range-local max-belief bounds.
func (si *synthIndex) encodeRange(lo, hi, nterms int) PostingsSeg {
	byTerm := make([][]OID, nterms)
	for d := lo; d < hi; d++ { // doc ascending by construction
		for t := range si.perDoc[d] {
			if int(t) < nterms {
				byTerm[t] = append(byTerm[t], OID(d))
			}
		}
	}
	starts := make([]int64, 1, nterms+1)
	var docs []OID
	var tfs []int64
	var bels []float64
	for t := 0; t < nterms; t++ {
		for _, d := range byTerm[t] {
			docs = append(docs, d)
			tfs = append(tfs, 1)
			bels = append(bels, si.perDoc[d][OID(t)])
		}
		starts = append(starts, int64(len(docs)))
	}
	seg, err := EncodeBlockSegment(starts, docs, tfs, bels)
	if err != nil {
		panic(err)
	}
	return seg
}

// scan runs the pruned operator over the whole corpus as one segment.
func (si *synthIndex) scan(query []OID, weights []float64, def float64, k int, domain *BAT, theta *TopKThreshold) (*BAT, error) {
	return PrunedTopKSegs([]PostingsSeg{si.seg}, query, weights, def, k, domain, theta)
}

// refTopK is the exhaustive reference: score every domain document with the
// canonical fold, sort fully, cut at k.
func (si *synthIndex) refTopK(query []OID, weights []float64, def float64, k int) ([]OID, []float64) {
	type hit struct {
		d OID
		s float64
	}
	var hits []hit
	wtot := 0.0
	for _, w := range weights {
		wtot += w
	}
	for d := 0; d < si.ndocs; d++ {
		sum, matched := 0.0, 0
		for qi, t := range query {
			var bel float64
			ok := false
			if int(t) < si.nterms {
				bel, ok = si.perDoc[d][t]
			}
			if !ok {
				continue
			}
			if weights == nil {
				sum += bel
			} else {
				sum += weights[qi] * (bel - def)
			}
			matched++
		}
		if weights == nil {
			hits = append(hits, hit{OID(d), sum + float64(len(query)-matched)*def})
		} else {
			hits = append(hits, hit{OID(d), sum + wtot*def})
		}
	}
	// selection sort order: score desc, OID asc (insertion via worseHit)
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && worseHit(hits[j-1].s, hits[j-1].d, hits[j].s, hits[j].d); j-- {
			hits[j-1], hits[j] = hits[j], hits[j-1]
		}
	}
	if len(hits) > k {
		hits = hits[:k]
	}
	docs := make([]OID, len(hits))
	scores := make([]float64, len(hits))
	for i, h := range hits {
		docs[i], scores[i] = h.d, h.s
	}
	return docs, scores
}

// mustEqualRef fails unless got is BUN-for-BUN (scores bit-for-bit) the
// exhaustive reference ranking of the query.
func mustEqualRef(t *testing.T, label string, si *synthIndex, query []OID, weights []float64, def float64, k int, got *BAT) {
	t.Helper()
	wantD, wantS := si.refTopK(query, weights, def, k)
	if got.Len() != len(wantD) {
		t.Fatalf("%s k=%d q=%v: got %d hits, want %d", label, k, query, got.Len(), len(wantD))
	}
	for i := 0; i < got.Len(); i++ {
		if got.Head.OIDAt(i) != wantD[i] || got.Tail.FloatAt(i) != wantS[i] {
			t.Fatalf("%s k=%d q=%v rank %d: got (%d, %v), want (%d, %v)",
				label, k, query, i, got.Head.OIDAt(i), got.Tail.FloatAt(i), wantD[i], wantS[i])
		}
	}
}

func checkTopK(t *testing.T, si *synthIndex, query []OID, weights []float64, k int) {
	t.Helper()
	const def = 0.4
	got, err := si.scan(query, weights, def, k, si.domain, nil)
	if err != nil {
		t.Fatalf("PrunedTopKSegs: %v", err)
	}
	mustEqualRef(t, "single segment", si, query, weights, def, k, got)
}

// TestPrunedTopKMatchesExhaustive is the differential property test: over
// random corpora (including duplicated documents, i.e. exact score ties,
// and out-of-vocabulary query terms) the pruned operator returns
// BUN-for-BUN the exhaustive ranking.
func TestPrunedTopKMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ nterms, ndocs, perDoc, dup int }{
		{1, 1, 1, 0},
		{5, 20, 3, 0},
		{12, 200, 6, 3},
		{50, 2000, 8, 5},
	}
	for _, sh := range shapes {
		si := mkSynthIndex(rng, sh.nterms, sh.ndocs, sh.perDoc, sh.dup)
		for trial := 0; trial < 8; trial++ {
			qlen := rng.Intn(6)
			query := make([]OID, qlen)
			for i := range query {
				if rng.Intn(8) == 0 {
					query[i] = OID(sh.nterms + rng.Intn(3)) // OOV
				} else {
					query[i] = OID(rng.Intn(sh.nterms))
				}
			}
			if qlen > 1 && rng.Intn(3) == 0 {
				query[1] = query[0] // duplicate term
			}
			for _, k := range []int{1, 3, sh.ndocs, sh.ndocs + 7} {
				checkTopK(t, si, query, nil, k)
				weights := make([]float64, qlen)
				for i := range weights {
					weights[i] = float64(rng.Intn(4)) * 0.5 // includes zero weights
				}
				checkTopK(t, si, query, weights, k)
			}
		}
	}
}

// TestPrunedTopKParallelIdentical pins the determinism contract: the scan
// run with four Ps available returns exactly what it returns on one, and
// both equal the exhaustive reference.
func TestPrunedTopKParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	si := mkSynthIndex(rng, 40, 5000, 8, 4)
	query := []OID{1, 3, 3, 7, 39}
	const def = 0.4
	for _, k := range []int{1, 10, 200} {
		old := runtime.GOMAXPROCS(1)
		serial, err := si.scan(query, nil, def, k, si.domain, nil)
		runtime.GOMAXPROCS(4)
		par, err2 := si.scan(query, nil, def, k, si.domain, nil)
		runtime.GOMAXPROCS(old)
		if err != nil || err2 != nil {
			t.Fatalf("errors: %v / %v", err, err2)
		}
		mustEqualRef(t, "serial", si, query, nil, def, k, serial)
		mustEqualRanking(t, "GOMAXPROCS 4 vs 1", serial, par)
	}
}

func TestPrunedTopKEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	si := mkSynthIndex(rng, 8, 50, 4, 0)
	// empty query: every document scores 0, ranking is OID ascending
	got, err := si.scan(nil, nil, 0.4, 5, si.domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("empty query: %d hits", got.Len())
	}
	for i := 0; i < 5; i++ {
		if got.Head.OIDAt(i) != OID(i) || got.Tail.FloatAt(i) != 0 {
			t.Fatalf("empty query rank %d: (%d, %v)", i, got.Head.OIDAt(i), got.Tail.FloatAt(i))
		}
	}
	// invalid k
	if _, err := si.scan(nil, nil, 0.4, 0, si.domain, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	// a weight that is negative, NaN or infinite is rejected (per-block
	// bounds are monotone only under finite non-negative weights)
	for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := si.scan([]OID{1}, []float64{w}, 0.4, 3, si.domain, nil); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if _, err := si.scan([]OID{1, 2}, []float64{math.MaxFloat64, math.MaxFloat64}, 0.4, 3, si.domain, nil); err == nil {
		t.Fatal("weights summing to +Inf accepted")
	}
	// both fold kinds fill from the domain, so both need one
	for _, w := range [][]float64{nil, {1}} {
		if _, err := si.scan([]OID{1}, w, 0.4, 3, nil, nil); err == nil {
			t.Fatalf("nil domain accepted (weights %v)", w)
		}
	}
	// k far beyond the collection returns the collection: the result is
	// sized by what the scan and the domain supply, not by k
	for _, w := range [][]float64{nil, {1}} {
		got, err := si.scan([]OID{1}, w, 0.4, 1<<40, si.domain, nil)
		if err != nil {
			t.Fatalf("k = 1<<40 (weights %v): %v", w, err)
		}
		if got.Len() != si.ndocs {
			t.Fatalf("k = 1<<40 (weights %v): %d hits, want %d", w, got.Len(), si.ndocs)
		}
	}
}

// TestEncodeBlockSegmentMalformed: the one encoder takes flat arrays from
// callers that may have read them off disk (the legacy-raw upgrade), so
// corrupt offsets, misaligned columns and unsorted runs must produce an
// error, never an out-of-range panic.
func TestEncodeBlockSegmentMalformed(t *testing.T) {
	docs := []OID{0, 1, 2}
	tfs := []int64{1, 1, 1}
	bels := []float64{0.5, 0.5, 0.5}
	for _, c := range []struct {
		name   string
		starts []int64
		docs   []OID
		tfs    []int64
		bels   []float64
	}{
		{"empty offsets", nil, docs, tfs, bels},
		{"intermediate offset past the postings", []int64{0, 5, 3}, docs, tfs, bels},
		{"negative offset", []int64{-1, 2, 3}, docs, tfs, bels},
		{"non-monotone", []int64{0, 2, 1, 3}, docs, tfs, bels},
		{"non-zero first offset", []int64{2, 2, 3}, docs, tfs, bels},
		{"last offset short of the postings", []int64{0, 1, 2}, docs, tfs, bels},
		{"tfs misaligned", []int64{0, 2, 3}, docs, tfs[:2], bels},
		{"beliefs misaligned", []int64{0, 2, 3}, docs, tfs, bels[:1]},
		{"run not ascending", []int64{0, 3, 3}, []OID{0, 2, 1}, tfs, bels},
		{"negative tf", []int64{0, 2, 3}, docs, []int64{1, -1, 1}, bels},
	} {
		if _, err := EncodeBlockSegment(c.starts, c.docs, c.tfs, c.bels); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// the well-formed neighbour of the cases above encodes and validates
	seg, err := EncodeBlockSegment([]int64{0, 2, 3}, docs, tfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBlockPostings(seg.Start, seg.BlkStart, seg.BlkDir, seg.BlkDoc, seg.BlkBDir, seg.BlkBel, seg.MaxBel); err != nil {
		t.Fatalf("structure-only encode does not load: %v", err)
	}
}

// TestBoundedTopK pins the shared bounded selector: exact best-k under the
// total order, independent of offer order.
func TestBoundedTopK(t *testing.T) {
	worse := func(a, b int) bool { return a < b } // "best" = largest
	h := NewBoundedTopK(3, worse)
	for _, v := range []int{5, 1, 9, 3, 7, 2, 8} {
		h.Offer(v)
	}
	got := h.Ranked()
	want := []int{9, 8, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", got, want)
		}
	}
	// underfull selector
	h2 := NewBoundedTopK(10, worse)
	h2.Offer(4)
	h2.Offer(6)
	if w, ok := h2.Worst(); !ok || w != 4 || h2.Full() {
		t.Fatalf("underfull: worst=%v ok=%v full=%v", w, ok, h2.Full())
	}
}

// shardSlice cuts a synthIndex to the document range [lo, hi): the
// term-ordered postings restricted to those documents, with shard-local
// max-belief bounds — exactly what one shard of a sharded store holds.
func (si *synthIndex) shardSlice(lo, hi OID) (seg PostingsSeg, domain *BAT) {
	domain = &BAT{Head: NewVoid(lo, int(hi-lo)), Tail: NewVoid(lo, int(hi-lo))}
	domain.HSorted, domain.HKey = true, true
	return si.encodeRange(int(lo), int(hi), si.nterms), domain
}

// TestPrunedTopKSharedAcrossShards is the shard-level analog of the
// partition property: document-range "shards" scanned concurrently with
// ONE shared threshold, merged through the bounded selector, must equal
// the exhaustive reference BUN-for-BUN — the threshold may only prune
// work, never results.
func TestPrunedTopKSharedAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	si := mkSynthIndex(rng, 40, 600, 6, 7)
	queries := [][]OID{
		{1, 2, 3},
		{0, 5, 39, 12},
		{7},
		{3, 3, 100}, // duplicate + out-of-range term
	}
	const def = 0.4
	for _, nShards := range []int{2, 3, 8} {
		for _, q := range queries {
			for _, k := range []int{1, 5, 40} {
				wantD, wantS := si.refTopK(q, nil, def, k)
				theta := NewTopKThreshold()
				merged := NewBoundedTopK(k, worseCand)
				var mu sync.Mutex
				var wg sync.WaitGroup
				for s := 0; s < nShards; s++ {
					lo := OID(si.ndocs * s / nShards)
					hi := OID(si.ndocs * (s + 1) / nShards)
					wg.Add(1)
					go func(lo, hi OID) {
						defer wg.Done()
						seg, domain := si.shardSlice(lo, hi)
						got, err := PrunedTopKSegs([]PostingsSeg{seg}, q, nil, def, k, domain, theta)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						for i := 0; i < got.Len(); i++ {
							merged.Offer(topkCand{doc: got.Head.OIDAt(i), score: got.Tail.FloatAt(i)})
						}
						mu.Unlock()
					}(lo, hi)
				}
				wg.Wait()
				ranked := merged.Ranked()
				if len(ranked) != len(wantD) {
					t.Fatalf("shards=%d q=%v k=%d: merged %d hits, want %d", nShards, q, k, len(ranked), len(wantD))
				}
				for i, c := range ranked {
					if c.doc != wantD[i] || c.score != wantS[i] {
						t.Fatalf("shards=%d q=%v k=%d rank %d: merged (%d, %v), reference (%d, %v)",
							nShards, q, k, i, c.doc, c.score, wantD[i], wantS[i])
					}
				}
			}
		}
	}
}

// TestTopKThresholdMonotone pins the threshold contract: Raise never
// lowers, and a threshold equal to the k-th best score never prunes the
// tied documents a second pass would return.
func TestTopKThresholdMonotone(t *testing.T) {
	th := NewTopKThreshold()
	th.Raise(1.5)
	th.Raise(0.5)
	if th.Load() != 1.5 {
		t.Fatalf("threshold lowered to %v", th.Load())
	}
	rng := rand.New(rand.NewSource(3))
	si := mkSynthIndex(rng, 20, 300, 5, 5)
	q := []OID{1, 2, 3}
	const k, def = 10, 0.4
	first, err := si.scan(q, nil, def, k, si.domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	// a second scan that starts at the converged threshold (what a late
	// shard sees) must return the identical ranking, ties included
	theta := NewTopKThreshold()
	theta.Raise(first.Tail.FloatAt(first.Len() - 1))
	second, err := si.scan(q, nil, def, k, si.domain, theta)
	if err != nil {
		t.Fatal(err)
	}
	if second.Len() != first.Len() {
		t.Fatalf("pre-raised threshold changed the result size: %d vs %d", second.Len(), first.Len())
	}
	for i := 0; i < first.Len(); i++ {
		if first.Head.OIDAt(i) != second.Head.OIDAt(i) || first.Tail.FloatAt(i) != second.Tail.FloatAt(i) {
			t.Fatalf("rank %d: (%d, %v) vs (%d, %v)", i,
				first.Head.OIDAt(i), first.Tail.FloatAt(i), second.Head.OIDAt(i), second.Tail.FloatAt(i))
		}
	}
}
