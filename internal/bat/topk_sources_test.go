package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sourcesCase is one multi-source ranking: a corpus per source over one
// shared document space, each split by its own segmentation, with its
// own query and, for a weighted source, weights.
type sourcesCase struct {
	sis    []*synthIndex
	srcs   []TopKSource
	div    float64
	k      int
	domain *BAT
	ndocs  int
	label  string
}

// randomCut returns ascending exclusive segment ends over [0, ndocs)
// with 1..maxSegs segments.
func randomCut(rng *rand.Rand, ndocs, maxSegs int) []int {
	cuts := map[int]bool{ndocs: true}
	for n := 1 + rng.Intn(maxSegs); len(cuts) < n && len(cuts) < ndocs; {
		cuts[1+rng.Intn(ndocs)] = true
	}
	var bounds []int
	for c := range cuts {
		bounds = append(bounds, c)
	}
	sort.Ints(bounds)
	return bounds
}

// Fold modes of randomSourcesCase.
const (
	foldsUnweighted = iota
	foldsWeighted
	foldsMixed // each source picks its own fold
)

// randomSourcesCase draws nsrc sources over ndocs documents, each with
// its own corpus, segmentation and query; mode picks the #sum fold, the
// weighted fold, or a per-source mix. Weights include zeros and span
// 1e-3…1e3.
func randomSourcesCase(rng *rand.Rand, nsrc, ndocs, maxSegs, mode int) *sourcesCase {
	c := &sourcesCase{ndocs: ndocs}
	for s := 0; s < nsrc; s++ {
		nterms := 1 + rng.Intn(12)
		si := mkSynthIndex(rng, nterms, ndocs, 1+rng.Intn(6), rng.Intn(4))
		qlen := rng.Intn(5)
		query := make([]OID, qlen)
		for i := range query {
			query[i] = OID(rng.Intn(nterms + 2)) // may exceed the dictionary: OOV
		}
		if qlen > 1 && rng.Intn(3) == 0 {
			query[1] = query[0] // duplicate term
		}
		src := TopKSource{Segs: segSplit(si, randomCut(rng, ndocs, maxSegs), rng.Intn(2) == 0), Query: query}
		if mode == foldsWeighted || (mode == foldsMixed && rng.Intn(2) == 0) {
			src.Weights = make([]float64, qlen)
			for i := range src.Weights {
				switch rng.Intn(3) {
				case 0:
					src.Weights[i] = float64(rng.Intn(4)) * 0.5 // includes zero weights
				default:
					src.Weights[i] = math.Pow(10, -3+6*rng.Float64())
				}
			}
		}
		c.sis = append(c.sis, si)
		c.srcs = append(c.srcs, src)
	}
	c.div = []float64{1, 2, 3, 0.5}[rng.Intn(4)]
	c.k = 1 + rng.Intn(ndocs+3)
	c.domain = c.sis[0].domain
	return c
}

// columns lays a corpus out as the exhaustive operators read it: the
// [term, position] reverse index and the [position, doc] / [position,
// belief] columns, postings in document order.
func (si *synthIndex) columns() (rev, doc, bel *BAT) {
	term := NewDense(0, KindOID)
	doc, bel = NewDense(0, KindOID), NewDense(0, KindFloat)
	p := OID(0)
	for d := 0; d < si.ndocs; d++ {
		terms := make([]OID, 0, len(si.perDoc[d]))
		for t := range si.perDoc[d] {
			terms = append(terms, t)
		}
		slices.Sort(terms)
		for _, t := range terms {
			term.MustAppend(p, t)
			doc.MustAppend(p, OID(d))
			bel.MustAppend(p, si.perDoc[d][t])
			p++
		}
	}
	return term.Reverse(), doc, bel
}

// ref is the exhaustive composition the operator must reproduce, over the
// pair-fed reference operators (prob_ref_test.go): per
// source getbl + SumBeliefs (unweighted) or WSumBeliefs (weighted), each
// filled over the domain at qlen·def resp. wtot·def, the folds added
// left to right ([+]), divided ([/]), fully sorted (score descending,
// OID ascending) and cut at k.
func (c *sourcesCase) ref(t *testing.T, def float64) ([]OID, []float64) {
	t.Helper()
	var total *BAT
	for s, src := range c.srcs {
		rev, doc, bel := c.sis[s].columns()
		var scored *BAT
		var err error
		fill := float64(len(src.Query)) * def
		if src.Weights == nil {
			beliefs, counts, gerr := pairGetBL(rev, doc, bel, src.Query)
			if gerr != nil {
				t.Fatal(gerr)
			}
			scored, err = SumBeliefs(beliefs, counts, len(src.Query), def)
		} else {
			wtot := 0.0
			for _, w := range src.Weights {
				wtot += w
			}
			fill = wtot * def
			scored, err = pairWSumBeliefs(rev, doc, bel, src.Query, src.Weights, def)
		}
		if err != nil {
			t.Fatal(err)
		}
		filled, err := Fill(scored, c.domain, fill)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			total = filled
		} else if total, err = Multiplex("+", total, filled); err != nil {
			t.Fatal(err)
		}
	}
	total, err := MultiplexConst("/", total, c.div, true)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]OID, total.Len())
	scores := make([]float64, total.Len())
	idx := make([]int, total.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		return worseHit(total.Tail.FloatAt(b), total.Head.OIDAt(b), total.Tail.FloatAt(a), total.Head.OIDAt(a))
	})
	for i, p := range idx {
		docs[i], scores[i] = total.Head.OIDAt(p), total.Tail.FloatAt(p)
	}
	n := min(c.k, len(docs))
	return docs[:n], scores[:n]
}

// check runs the case through PrunedTopK and demands the reference
// ranking BUN for BUN, scores bit for bit.
func (c *sourcesCase) check(t *testing.T) {
	t.Helper()
	const def = 0.4
	got, err := PrunedTopK(c.srcs, c.div, def, c.k, c.domain, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	wantD, wantS := c.ref(t, def)
	if got.Len() != len(wantD) {
		t.Fatalf("%s k=%d div=%v: got %d hits, want %d", c.label, c.k, c.div, got.Len(), len(wantD))
	}
	for i := range wantD {
		if got.Head.OIDAt(i) != wantD[i] || got.Tail.FloatAt(i) != wantS[i] {
			t.Fatalf("%s k=%d div=%v rank %d: got (%d, %v), want (%d, %v)",
				c.label, c.k, c.div, i, got.Head.OIDAt(i), got.Tail.FloatAt(i), wantD[i], wantS[i])
		}
	}
}

// TestPrunedTopKSourcesMatchesFold is the multi-source differential: for
// 1–3 sources whose segment lists are cut independently (so slices
// narrow postings on one side and not the other), random queries with
// OOV and duplicate terms, empty queries, unweighted, weighted and mixed
// folds and several divisors, the one operator returns the exhaustive
// composition's ranking.
func TestPrunedTopKSourcesMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 300; round++ {
		c := randomSourcesCase(rng, 1+rng.Intn(3), 1+rng.Intn(400), 5, round%3)
		c.label = fmt.Sprintf("round %d (%d sources)", round, len(c.srcs))
		c.check(t)
	}
}

// TestPrunedTopKSourcesWideBlocks repeats the differential on corpora
// large enough that clipped posting ranges start and end inside blocks.
func TestPrunedTopKSourcesWideBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6; round++ {
		c := randomSourcesCase(rng, 2, 3000+rng.Intn(2000), 6, round%3)
		c.k = 1 + rng.Intn(30)
		c.label = fmt.Sprintf("wide round %d", round)
		c.check(t)
	}
}

// TestPrunedTopKOneSourceIsSegs pins the single-source case to the
// PrunedTopKSegs form bit for bit, including its block counters: the
// generalised loop serves every text query.
func TestPrunedTopKOneSourceIsSegs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	si := mkSynthIndex(rng, 10, 5000, 6, 5)
	segs := segSplit(si, []int{1200, 3100, 5000}, false)
	query := []OID{0, 3, 4, 7}
	d0, s0 := BlockScanStats()
	a, err := PrunedTopKSegs(segs, query, nil, 0.4, 10, si.domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, s1 := BlockScanStats()
	b, err := PrunedTopK([]TopKSource{{Segs: segs, Query: query}}, 1, 0.4, 10, si.domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2 := BlockScanStats()
	mustEqualRanking(t, "one source vs segs", a, b)
	if d1-d0 != d2-d1 || s1-s0 != s2-s1 {
		t.Fatalf("block counters differ: %d/%d vs %d/%d", d1-d0, s1-s0, d2-d1, s2-s1)
	}
}

// TestPrunedTopKSourcesValidation keeps malformed multi-source input an
// error, never a panic.
func TestPrunedTopKSourcesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	si := mkSynthIndex(rng, 4, 40, 3, 0)
	ok := TopKSource{Segs: []PostingsSeg{si.seg}, Query: []OID{0, 1}}
	weighted := TopKSource{Segs: []PostingsSeg{si.seg}, Query: []OID{0}, Weights: []float64{1}}
	split := segSplit(si, []int{20, 40}, false)
	for name, call := range map[string]func() error{
		"no sources":   func() error { _, err := PrunedTopK(nil, 1, 0.4, 3, si.domain, nil); return err },
		"zero divisor": func() error { _, err := PrunedTopK([]TopKSource{ok}, 0, 0.4, 3, si.domain, nil); return err },
		"no domain": func() error {
			_, err := PrunedTopK([]TopKSource{ok, weighted}, 2, 0.4, 3, nil, nil)
			return err
		},
		"weights misaligned": func() error {
			_, err := PrunedTopK([]TopKSource{ok, {Segs: weighted.Segs, Query: []OID{0, 1}, Weights: []float64{1}}}, 2, 0.4, 3, si.domain, nil)
			return err
		},
		"unordered segments": func() error {
			_, err := PrunedTopK([]TopKSource{ok, {Segs: []PostingsSeg{split[1], split[0]}, Query: []OID{0}}}, 2, 0.4, 3, si.domain, nil)
			return err
		},
		"source without segments": func() error {
			_, err := PrunedTopK([]TopKSource{ok, {Query: []OID{0}}}, 2, 0.4, 3, si.domain, nil)
			return err
		},
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzPrunedTopKSources drives the multi-source operator with random
// postings: 1–3 sources over one document space, each cut into its own
// random segment partition, random queries, fold mode (unweighted,
// weighted or mixed), divisor and k, compared BUN for BUN against the
// exhaustive composition (getbl/wsum_bel + fill, [+], [/]).
func FuzzPrunedTopKSources(f *testing.F) {
	for _, seed := range []int64{0, 1, 26, 1999} {
		f.Add(seed, uint8(2), uint16(120), uint8(foldsUnweighted))
	}
	f.Add(int64(7), uint8(1), uint16(1), uint8(foldsUnweighted))
	f.Add(int64(9), uint8(3), uint16(700), uint8(foldsWeighted))
	// Mixed folds over 3 sources and 301 documents: seeds 0, 3 and 12
	// draw a zero-term source, 0, 12 and 29 out-of-range term OIDs, and
	// 12, 29 and 36 weights from ~1e-3 to ~1e3.
	for _, seed := range []int64{0, 3, 12, 29, 36} {
		f.Add(seed, uint8(2), uint16(300), uint8(foldsMixed))
	}
	f.Fuzz(func(t *testing.T, seed int64, nsrc uint8, ndocs uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomSourcesCase(rng, 1+int(nsrc%3), 1+int(ndocs%1500), 6, int(mode%3))
		c.label = fmt.Sprintf("seed %d", seed)
		c.check(t)
	})
}
