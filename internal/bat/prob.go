package bat

import "fmt"

// This file contains the probabilistic physical operators that the paper
// adds to the Monet kernel: "New structures in Moa, supported by new
// probabilistic operators at the physical level, provide an efficient
// implementation of the inference network retrieval model."
//
// A flattened CONTREP is a triple of positionally aligned BATs over a dense
// pair-OID head:
//
//	term   [pair(void), termOID]
//	doc    [pair(void), docOID]
//	belief [pair(void), flt]
//
// GetBL is the physical workhorse behind the Moa-level getBL(): given the
// OIDs of the query terms it produces the per-document evidence.

// GetBL scans the postings of the query terms and returns
//
//	beliefs [docOID, flt]  — one BUN per (document, matched query term)
//	counts  [docOID, int]  — number of matched query terms per document
//
// Documents that match no query term do not appear; the logical layer
// accounts for the default belief of unmatched terms algebraically
// (sum = matchedSum + (|q|-matched)·defaultBelief), which is what makes the
// operator scale with the posting lists rather than with the collection.
//
// revTerm must be term.Reverse() retained by the caller, so that its hash
// index (built here on first use) persists across queries.
func GetBL(revTerm, doc, belief *BAT, query []OID) (beliefs, counts *BAT, err error) {
	if doc.Len() != belief.Len() || doc.Len() != revTerm.Len() {
		return nil, nil, fmt.Errorf("bat: getBL: misaligned contrep columns (%d/%d/%d)",
			revTerm.Len(), doc.Len(), belief.Len())
	}
	if doc.Tail.Kind() != KindOID && doc.Tail.Kind() != KindVoid {
		return nil, nil, fmt.Errorf("bat: getBL: doc tail must be oid, got %s", doc.Tail.Kind())
	}
	if belief.Tail.Kind() != KindFloat {
		return nil, nil, fmt.Errorf("bat: getBL: belief tail must be flt, got %s", belief.Tail.Kind())
	}
	revHash := revTerm.ensureHash()

	// Gather the matched posting positions first; everything after is sized
	// from the match volume, never from the collection.
	var matched [][]int
	total := 0
	for _, q := range query {
		var positions []int
		if revTerm.HDense() {
			// degenerate but possible: term column dense (each pair its own term)
			i := int(int64(q) - int64(revTerm.Head.Base()))
			if i >= 0 && i < revTerm.Len() {
				positions = []int{i}
			}
		} else {
			positions = revHash.positions(revTerm.Head, q)
		}
		matched = append(matched, positions)
		total += len(positions)
	}

	// Gather the beliefs term by term, in query order, into pre-sized
	// columns (no per-row append).
	beliefs = New(KindOID, KindFloat)
	beliefs.Head.oids = make([]OID, 0, total)
	beliefs.Tail.flts = make([]float64, 0, total)
	for _, positions := range matched {
		for _, p := range positions {
			beliefs.Head.oids = append(beliefs.Head.oids, doc.Tail.OIDAt(p))
			beliefs.Tail.flts = append(beliefs.Tail.flts, belief.Tail.flts[p])
		}
	}

	// Dense accumulator fast path: document OIDs are small integers after
	// flattening (0..card-1), so per-document counters live in a flat array
	// rather than a hash map — the columnar execution style the physical
	// layer exists for. Falls back to a map for sparse OID spaces.
	maxDoc := maxOID(beliefs.Head.oids)
	useDense := uint64(maxDoc) < uint64(4*total+1024)
	var cntArr []int64
	var cntMap map[OID]int64
	if useDense {
		cntArr = make([]int64, maxDoc+1)
	} else {
		cntMap = make(map[OID]int64)
	}
	order := make([]OID, 0, 64)
	for _, d := range beliefs.Head.oids {
		if useDense {
			if cntArr[d] == 0 {
				order = append(order, d)
			}
			cntArr[d]++
		} else {
			if _, seen := cntMap[d]; !seen {
				order = append(order, d)
			}
			cntMap[d]++
		}
	}
	counts = New(KindOID, KindInt)
	counts.Head.oids = make([]OID, 0, len(order))
	counts.Tail.ints = make([]int64, 0, len(order))
	for _, d := range order {
		c := int64(0)
		if useDense {
			c = cntArr[d]
		} else {
			c = cntMap[d]
		}
		counts.Head.oids = append(counts.Head.oids, d)
		counts.Tail.ints = append(counts.Tail.ints, c)
	}
	counts.HKey = true
	return beliefs, counts, nil
}

// SumBeliefs folds the output of GetBL into per-document belief sums with
// the default belief filled in for unmatched query terms:
//
//	score(d) = Σ matched beliefs + (qlen − matched(d)) · defaultBelief
//
// The result is [docOID, flt] with one BUN per matching document, unsorted.
func SumBeliefs(beliefs, counts *BAT, qlen int, defaultBelief float64) (*BAT, error) {
	if beliefs.Head.Kind() != KindOID || beliefs.Tail.Kind() != KindFloat {
		return nil, fmt.Errorf("bat: sumBeliefs: want [oid,flt], got [%s,%s]",
			beliefs.Head.Kind(), beliefs.Tail.Kind())
	}
	// dense accumulator when the doc OID space is compact (see GetBL)
	n := beliefs.Len()
	maxDoc := maxOID(beliefs.Head.oids)
	out := New(KindOID, KindFloat)
	out.Head.oids = make([]OID, 0, counts.Len())
	out.Tail.flts = make([]float64, 0, counts.Len())
	if uint64(maxDoc) < uint64(4*n+1024) {
		sums := make([]float64, maxDoc+1)
		for i, d := range beliefs.Head.oids {
			sums[d] += beliefs.Tail.flts[i]
		}
		for i := 0; i < counts.Len(); i++ {
			d := counts.Head.oids[i]
			out.Head.oids = append(out.Head.oids, d)
			out.Tail.flts = append(out.Tail.flts, sums[d]+float64(qlen-int(counts.Tail.ints[i]))*defaultBelief)
		}
	} else {
		sums := make(map[OID]float64, counts.Len())
		for i := 0; i < beliefs.Len(); i++ {
			sums[beliefs.Head.oids[i]] += beliefs.Tail.flts[i]
		}
		for i := 0; i < counts.Len(); i++ {
			d := counts.Head.oids[i]
			matched := counts.Tail.ints[i]
			out.Head.oids = append(out.Head.oids, d)
			out.Tail.flts = append(out.Tail.flts, sums[d]+float64(qlen-int(matched))*defaultBelief)
		}
	}
	out.HKey = true
	return out, nil
}

// maxOID returns the maximum value in oids (0 when empty).
func maxOID(oids []OID) OID {
	m := OID(0)
	for _, d := range oids {
		if d > m {
			m = d
		}
	}
	return m
}

// WSumBeliefs is the weighted variant used by the #wsum inference-network
// operator: query term i carries weight w[i]. Beliefs of unmatched terms
// default as in SumBeliefs. Because weights are per-term, this recomputes
// the scan rather than reusing GetBL output.
func WSumBeliefs(revTerm, doc, belief *BAT, query []OID, weights []float64, defaultBelief float64) (*BAT, error) {
	if len(query) != len(weights) {
		return nil, fmt.Errorf("bat: wsum: %d terms vs %d weights", len(query), len(weights))
	}
	revHash := revTerm.ensureHash()
	var wtot float64
	for _, w := range weights {
		wtot += w
	}
	sums := make(map[OID]float64)
	order := make([]OID, 0, 64)
	seen := make(map[OID]bool)
	for qi, q := range query {
		if revTerm.HDense() {
			continue
		}
		for _, p := range revHash.positions(revTerm.Head, q) {
			d := doc.Tail.OIDAt(p)
			if !seen[d] {
				seen[d] = true
				order = append(order, d)
			}
			// add weighted surplus over the default belief; the default mass
			// w·defaultBelief for every term is added once below.
			sums[d] += weights[qi] * (belief.Tail.flts[p] - defaultBelief)
		}
	}
	out := New(KindOID, KindFloat)
	for _, d := range order {
		out.Head.oids = append(out.Head.oids, d)
		out.Tail.flts = append(out.Tail.flts, sums[d]+wtot*defaultBelief)
	}
	out.HKey = true
	return out, nil
}

// GetBLPairs is the *materialising* form of GetBL used by the unoptimised
// query plan: for EVERY document in domain and EVERY query term it emits one
// BUN (docOID, belief), using defaultBelief for terms absent from the
// document. Cost is Θ(|domain|·|query|) — this is the operator the
// sum∘getBL fusion rewrite eliminates (BenchmarkE7_OptimizerAblation).
// Output is grouped by document in domain order.
func GetBLPairs(revTerm, doc, belief *BAT, query []OID, defaultBelief float64, domain *BAT) (*BAT, error) {
	revHash := revTerm.ensureHash()
	// Per-document belief lookup for the query terms only.
	type key struct {
		d OID
		q int
	}
	matched := make(map[key]float64)
	for qi, q := range query {
		if revTerm.HDense() {
			continue
		}
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
				b = defaultBelief
			}
			out.Head.oids = append(out.Head.oids, d)
			out.Tail.flts = append(out.Tail.flts, b)
		}
	}
	return out, nil
}
