package bat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sourcesCase is one multi-source ranking: a corpus per source over one
// shared document space, each split by its own segmentation, with its
// own query (and, in weighted mode, weights).
type sourcesCase struct {
	sis     []*synthIndex
	srcs    []TopKSource
	div     float64
	k       int
	domain  *BAT
	ndocs   int
	label   string
	weights bool
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

// randomSourcesCase draws nsrc sources over ndocs documents, each with
// its own corpus, segmentation and query; weighted picks the #wsum fold
// for every source.
func randomSourcesCase(rng *rand.Rand, nsrc, ndocs, maxSegs int, weighted bool) *sourcesCase {
	c := &sourcesCase{ndocs: ndocs, weights: weighted}
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
		if weighted {
			src.Weights = make([]float64, qlen)
			for i := range src.Weights {
				src.Weights[i] = float64(rng.Intn(4)) * 0.5 // includes zero weights
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

// ref is the exhaustive reference: every document scored with each
// source's canonical fold, added left to right, divided, fully sorted
// (score descending, OID ascending) and cut at k. Weighted folds keep
// only documents some source matches.
func (c *sourcesCase) ref(def float64) ([]OID, []float64) {
	type hit struct {
		d OID
		s float64
	}
	var hits []hit
	for d := 0; d < c.ndocs; d++ {
		score, any := 0.0, false
		for s, src := range c.srcs {
			si := c.sis[s]
			sum, matched, wtot := 0.0, 0, 0.0
			for qi, t := range src.Query {
				if src.Weights != nil {
					wtot += src.Weights[qi]
				}
				bel, ok := 0.0, false
				if int(t) < si.nterms {
					bel, ok = si.perDoc[d][t]
				}
				if !ok {
					continue
				}
				if src.Weights == nil {
					sum += bel
				} else {
					sum += src.Weights[qi] * (bel - def)
				}
				matched++
			}
			fold := sum + float64(len(src.Query)-matched)*def
			if src.Weights != nil {
				fold = sum + wtot*def
			}
			any = any || matched > 0
			if s == 0 {
				score = fold
			} else {
				score += fold
			}
		}
		if c.weights && !any {
			continue
		}
		hits = append(hits, hit{OID(d), score / c.div})
	}
	sort.Slice(hits, func(i, j int) bool { return worseHit(hits[j].s, hits[j].d, hits[i].s, hits[i].d) })
	if len(hits) > c.k {
		hits = hits[:c.k]
	}
	docs := make([]OID, len(hits))
	scores := make([]float64, len(hits))
	for i, h := range hits {
		docs[i], scores[i] = h.d, h.s
	}
	return docs, scores
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
	wantD, wantS := c.ref(def)
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
// OOV and duplicate terms, empty queries, both fold modes and several
// divisors, the one operator returns the exhaustive fold's ranking.
func TestPrunedTopKSourcesMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 300; round++ {
		c := randomSourcesCase(rng, 1+rng.Intn(3), 1+rng.Intn(400), 5, round%4 == 3)
		c.label = fmt.Sprintf("round %d (%d sources)", round, len(c.srcs))
		c.check(t)
	}
}

// TestPrunedTopKSourcesWideBlocks repeats the differential on corpora
// large enough that clipped posting ranges start and end inside blocks.
func TestPrunedTopKSourcesWideBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6; round++ {
		c := randomSourcesCase(rng, 2, 3000+rng.Intn(2000), 6, false)
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
		"mixed folds": func() error {
			_, err := PrunedTopK([]TopKSource{ok, weighted}, 2, 0.4, 3, si.domain, nil)
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
// random segment partition, random queries, fold mode, divisor and k,
// compared BUN for BUN against the exhaustive fold.
func FuzzPrunedTopKSources(f *testing.F) {
	for _, seed := range []int64{0, 1, 26, 1999} {
		f.Add(seed, uint8(2), uint16(120), false)
	}
	f.Add(int64(7), uint8(1), uint16(1), false)
	f.Add(int64(9), uint8(3), uint16(700), true)
	f.Fuzz(func(t *testing.T, seed int64, nsrc uint8, ndocs uint16, weighted bool) {
		rng := rand.New(rand.NewSource(seed))
		c := randomSourcesCase(rng, 1+int(nsrc%3), 1+int(ndocs%1500), 6, weighted)
		c.label = fmt.Sprintf("seed %d", seed)
		c.check(t)
	})
}
