package bat

import "fmt"

// This file contains the probabilistic physical operators that the paper
// adds to the Monet kernel: "New structures in Moa, supported by new
// probabilistic operators at the physical level, provide an efficient
// implementation of the inference network retrieval model."
//
// The exhaustive operators read a CONTREP's postings in the one form the
// store keeps them: the block-compressed segments the pruned operator
// scans (PostingsSeg; topk.go). Each query term's postings are decoded
// term by term in query order and, within a term, segment by segment;
// segments partition the document space in ascending order, so every
// term's run is document-ascending.

// queryPostings decodes the postings of every query term, in query
// order, into one TermPostings; ends[i] is the end of query term i's run.
// A term beyond a segment's dictionary has no postings there.
func queryPostings(segs []PostingsSeg, query []OID) (p TermPostings, ends []int, err error) {
	views := make([]*BlockPostings, len(segs))
	for g, s := range segs {
		if views[g], err = cachedBlockPostings(s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel); err != nil {
			return p, nil, fmt.Errorf("bat: getBL: segment %d: %w", g, err)
		}
	}
	// Sized from the match volume, never from the collection.
	total := 0
	for _, q := range query {
		for _, bp := range views {
			if uint64(q) < uint64(bp.NTerms()) {
				lo, hi := bp.TermRange(int(q))
				total += hi - lo
			}
		}
	}
	p.Docs, p.Bels = make([]OID, 0, total), make([]float64, 0, total)
	ends = make([]int, len(query))
	for i, q := range query {
		for g, bp := range views {
			if uint64(q) < uint64(bp.NTerms()) {
				if err := p.AppendTerm(bp, int(q)); err != nil {
					return p, nil, fmt.Errorf("bat: getBL: segment %d term %d: %w", g, q, err)
				}
			}
		}
		ends[i] = len(p.Docs)
	}
	return p, ends, nil
}

// GetBL scans the postings of the query terms and returns
//
//	beliefs [docOID, flt]  — one BUN per (document, matched query term)
//	counts  [docOID, int]  — number of matched query terms per document
//
// Documents that match no query term do not appear; the logical layer
// accounts for the default belief of unmatched terms algebraically
// (sum = matchedSum + (|q|-matched)·defaultBelief), which is what makes the
// operator scale with the posting lists rather than with the collection.
func GetBL(segs []PostingsSeg, query []OID) (beliefs, counts *BAT, err error) {
	p, _, err := queryPostings(segs, query)
	if err != nil {
		return nil, nil, err
	}
	beliefs = New(KindOID, KindFloat)
	beliefs.Head.oids = p.Docs
	beliefs.Tail.flts = p.Bels
	return beliefs, matchCounts(p.Docs), nil
}

// matchCounts counts the BUNs per document of GetBL's beliefs column:
// [docOID, int] in order of first appearance.
func matchCounts(docs []OID) *BAT {
	// Dense accumulator fast path: document OIDs are small integers after
	// flattening (0..card-1), so per-document counters live in a flat array
	// rather than a hash map — the columnar execution style the physical
	// layer exists for. Falls back to a map for sparse OID spaces.
	maxDoc := maxOID(docs)
	useDense := uint64(maxDoc) < uint64(4*len(docs)+1024)
	var cntArr []int64
	var cntMap map[OID]int64
	if useDense {
		cntArr = make([]int64, maxDoc+1)
	} else {
		cntMap = make(map[OID]int64)
	}
	order := make([]OID, 0, 64)
	for _, d := range docs {
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
	counts := New(KindOID, KindInt)
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
	return counts
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
func WSumBeliefs(segs []PostingsSeg, query []OID, weights []float64, defaultBelief float64) (*BAT, error) {
	if len(query) != len(weights) {
		return nil, fmt.Errorf("bat: wsum: %d terms vs %d weights", len(query), len(weights))
	}
	p, ends, err := queryPostings(segs, query)
	if err != nil {
		return nil, err
	}
	var wtot float64
	for _, w := range weights {
		wtot += w
	}
	sums := make(map[OID]float64)
	order := make([]OID, 0, 64)
	lo := 0
	for qi, hi := range ends {
		for i := lo; i < hi; i++ {
			d := p.Docs[i]
			if _, seen := sums[d]; !seen {
				order = append(order, d)
			}
			// add weighted surplus over the default belief; the default mass
			// w·defaultBelief for every term is added once below.
			sums[d] += weights[qi] * (p.Bels[i] - defaultBelief)
		}
		lo = hi
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
func GetBLPairs(segs []PostingsSeg, query []OID, defaultBelief float64, domain *BAT) (*BAT, error) {
	p, ends, err := queryPostings(segs, query)
	if err != nil {
		return nil, err
	}
	// Per-document belief lookup for the query terms only.
	type key struct {
		d OID
		q int
	}
	matched := make(map[key]float64, len(p.Docs))
	lo := 0
	for qi, hi := range ends {
		for i := lo; i < hi; i++ {
			matched[key{p.Docs[i], qi}] = p.Bels[i]
		}
		lo = hi
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
