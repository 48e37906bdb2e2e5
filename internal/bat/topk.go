package bat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// This file is the pruned ranked-retrieval operator of the physical layer:
// document-at-a-time max-score (WAND-family) evaluation over term-ordered
// postings with per-term belief upper bounds, feeding a bounded k-heap.
// Where GetBL + SumBeliefs + a full sort score and order the whole match
// set (O(matches + N log N) once the logical layer fills in defaults for
// the entire collection), PrunedTopK visits only documents whose score
// *could* enter the current top k and returns the cut directly:
// O(matches · log k) with skipping, never a collection-sized intermediate.
//
// The operator consumes the block-compressed term-ordered postings
// CONTREP's Finalize derives (internal/ir; layout in postcodec.go), one
// PostingsSeg per index segment, from one or more evidence sources (one
// CONTREP each); the scan loop itself is in topk_blocks.go.
//
// Determinism contract: the returned ranking is BUN-for-BUN identical to
// exhaustively scoring every document with the *serial* folds
//
//	fold_s(d) = Σ_{qi asc, matched} bel(q_s[qi], d) + (qlen_s − matched)·def
//	score(d)  = (fold_1(d) + … + fold_n(d)) / div
//
// (exactly SumBeliefs' arithmetic per source, then the flattened
// [+] and [/] multiplexes), ordering by score descending with OID
// ascending ties, and cutting at k. Candidate scores are computed with
// that fold verbatim; pruning bounds are padded by boundSlack so
// floating-point reassociation in the bound arithmetic can never skip a
// true top-k document. One call runs on one goroutine, so the result and
// the block counters are the same at any GOMAXPROCS; a shared threshold
// only decides which documents are *considered*, every returned score is
// the same canonical fold.

// boundSlack pads every pruning-bound comparison. Bounds are sums of at
// most a few hundred beliefs in [0,1], so their rounding error is < 1e-10;
// padding by 1e-9 keeps the bound a true upper bound of the exactly-folded
// score while costing only the occasional extra candidate evaluation.
const boundSlack = 1e-9

// ---- the bounded k-heap ----

// worseHit reports whether (s1,d1) ranks strictly after (s2,d2) under the
// ranked-retrieval order: score descending, OID ascending on ties.
func worseHit(s1 float64, d1 OID, s2 float64, d2 OID) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return d1 > d2
}

// BoundedTopK is a bounded best-k selector: Offer any number of elements,
// it retains the k best under the strict total order worse(a,b) == "a
// ranks after b". Internally a binary min-heap whose root is the current
// worst retained element, so selection costs O(N log k). The comparator
// being a total order makes the retained set independent of offer order.
// Every ranking cut in the system (the pruned retrieval operator, the
// row ranking of exhaustive plans and the gather's merge) runs on this
// one implementation.
type BoundedTopK[T any] struct {
	worse func(a, b T) bool
	items []T
	k     int
}

// NewBoundedTopK returns a selector for the k best elements.
func NewBoundedTopK[T any](k int, worse func(a, b T) bool) *BoundedTopK[T] {
	cap := k
	if cap > 1024 {
		cap = 1024
	}
	return &BoundedTopK[T]{k: k, worse: worse, items: make([]T, 0, cap)}
}

// NewBoundedTopKInto is NewBoundedTopK reusing scratch's backing array
// for the retained items (pass pooled scratch to avoid the per-selection
// allocation; scratch may be nil). The selector owns scratch until
// Ranked hands the — possibly reallocated — slice back.
func NewBoundedTopKInto[T any](scratch []T, k int, worse func(a, b T) bool) *BoundedTopK[T] {
	return &BoundedTopK[T]{k: k, worse: worse, items: scratch[:0]}
}

// Full reports whether k elements are retained.
func (h *BoundedTopK[T]) Full() bool { return len(h.items) >= h.k }

// Worst returns the worst retained element; ok is false while empty.
func (h *BoundedTopK[T]) Worst() (v T, ok bool) {
	if len(h.items) == 0 {
		return v, false
	}
	return h.items[0], true
}

// Offer retains v if it belongs in the top k.
func (h *BoundedTopK[T]) Offer(v T) {
	if h.Full() {
		if !h.worse(h.items[0], v) {
			return
		}
		h.items[0] = v
		h.siftDown(0)
		return
	}
	h.items = append(h.items, v)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.worse(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *BoundedTopK[T]) siftDown(i int) {
	n := len(h.items)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.worse(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.worse(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// Ranked sorts the retained elements best-first and returns them; the
// selector must not be Offered to afterwards.
func (h *BoundedTopK[T]) Ranked() []T {
	slices.SortFunc(h.items, func(a, b T) int {
		switch {
		case h.worse(b, a):
			return -1
		case h.worse(a, b):
			return 1
		}
		return 0
	})
	return h.items
}

// descending is a slices.SortStableFunc comparator putting larger values
// first. Unordered pairs (NaN) compare equal, as under the strict ">" a
// sort.SliceStable less function would use.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// topkCand is the pruned operator's heap element.
type topkCand struct {
	doc   OID
	score float64
}

func worseCand(a, b topkCand) bool { return worseHit(a.score, a.doc, b.score, b.doc) }

// ---- shared threshold across segments and shards ----

// TopKThreshold is a monotonically rising score lower bound shared by all
// scans cooperating on one top-k cut: each publishes its local k-th best,
// and any scan's k-th best within its candidate subset is ≤ the global
// k-th best, so skipping bound+slack ≤ θ can never drop a true top-k
// document. Within one PrunedTopK call the slices share one
// automatically; a sharded engine passes the same object to every shard's
// scan so pruning tightens across shards exactly as it does across
// segments. Safe for concurrent use; zero value is NOT ready — use
// NewTopKThreshold.
type TopKThreshold struct{ bits atomic.Uint64 }

// NewTopKThreshold returns a threshold initialised to -Inf (nothing can be
// pruned until some scan retains k candidates).
func NewTopKThreshold() *TopKThreshold {
	t := &TopKThreshold{}
	t.bits.Store(math.Float64bits(math.Inf(-1)))
	return t
}

// Load returns the current lower bound.
func (t *TopKThreshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Raise lifts the bound to v if v is higher; it never lowers.
func (t *TopKThreshold) Raise(v float64) {
	for {
		old := t.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if t.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ---- the operator ----

// qterm is one query term's scan state within a slice.
type qterm struct {
	qi     int     // position in the concatenated query (sources in order: the canonical fold order)
	cur    int     // next unread posting position (also the search start)
	hi     int     // end of the term's posting range in the slice
	ub     float64 // upper bound on the term's score surplus over the default
	weight float64 // per-term weight (1 in unweighted mode)
}

// PostingsSeg bundles the seven block-layout postings columns of one
// index segment (postcodec.go; internal/ir splits the postings by
// document range into generation-numbered segments). All heads are
// dense void.
type PostingsSeg struct {
	Start    *BAT // [termOID(void), int]  per-term posting offsets, nterms+1 entries
	MaxBel   *BAT // [termOID(void), flt]  exact per-term maximum belief in the segment
	BlkStart *BAT // [termOID(void), int]  per-term block offsets
	BlkDir   *BAT // [void, int]           2 per block: lastDoc, docEnd
	BlkDoc   *BAT // [void, bytes]         doc-id + tf blocks
	BlkBDir  *BAT // [void, int]           2 per block: belEnd, qmaxBits
	BlkBel   *BAT // [void, bytes]         belief data
}

// TopKSource is one evidence source of a pruned ranking: the query-term
// OIDs of one CONTREP and that CONTREP's postings segments, which
// together partition the document space in ascending document order
// (each document's postings live entirely in one segment). Weights,
// when non-nil, hold one finite, non-negative weight per query term and
// select the weighted-sum fold for this source.
type TopKSource struct {
	Segs    []PostingsSeg
	Query   []OID
	Weights []float64
}

// PrunedTopKSegs is PrunedTopK over one source and divisor 1: the ranking
// of one CONTREP under the inference-network sum (weights == nil) or
// weighted sum (weights != nil, all finite and ≥ 0).
func PrunedTopKSegs(segs []PostingsSeg, query []OID, weights []float64, def float64, k int, domain *BAT, theta *TopKThreshold) (*BAT, error) {
	return PrunedTopK([]TopKSource{{Segs: segs, Query: query, Weights: weights}}, 1, def, k, domain, theta)
}

// PrunedTopK returns the top k documents under
//
//	score(d) = (fold_1(d) + … + fold_n(d)) / div
//
// with one fold per source, as [docOID, flt] ordered score descending /
// OID ascending, cut at k. div must be positive; with one source and
// div = 1 the score is that source's fold itself.
//
// The result reproduces the full logical pipeline — per source getbl +
// fill (unweighted) or wsum_bel + fill (weighted), then [+], [/] and
// rank — and the two fold kinds mix freely. A document matching no term
// of a source folds to qlen·def resp. wtot·def there, and documents
// matching nothing at all are merged in (by ascending OID) when the match
// set cannot fill the top k alone; domain supplies their OIDs and must
// enumerate them ascending.
//
// The result is BUN-for-BUN identical to scanning each source as the one
// segment obtained by merging its list. The sources' segment lists need
// not align: the scan walks the common refinement of their document
// ranges (a segment's range ends past its last posting), one slice at a
// time into one heap under one rising threshold — the mechanism that
// also makes shard scans across stores return the single-store result.
// Within a slice each source has at most one segment; a term's posting
// range is narrowed to the slice only where the slice is smaller than the
// segment. Slices are visited in descending impact (the sum of their
// per-term score-surplus bounds), so the threshold reaches its terminal
// height early. Segments may disagree on dictionary size (a segment
// published before later terms existed simply has no postings for them)
// and on per-term bounds (a per-segment bound is tighter, pruning more,
// never less correctly).
//
// theta, when non-nil, is an externally owned pruning threshold in score
// units: a scatter-gather engine passes the same *TopKThreshold to every
// shard's scan of one query, so a hot shard's k-th best prunes the cold
// shards' scans. Sharing never changes the ranking (the threshold is
// always a valid global lower bound), only the amount of skipped work.
func PrunedTopK(srcs []TopKSource, div, def float64, k int, domain *BAT, theta *TopKThreshold) (*BAT, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bat: prunedtopk: k must be positive, got %d", k)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("bat: prunedtopk: no sources")
	}
	if !(div > 0) || math.IsInf(div, 1) {
		return nil, fmt.Errorf("bat: prunedtopk: divisor must be positive and finite, got %v", div)
	}
	if domain == nil {
		return nil, fmt.Errorf("bat: prunedtopk: a domain is needed for default-scored documents")
	}
	scans := make([]sourceScan, len(srcs))
	m := 0
	// fillBase is the fold sum of a document matching nothing, in the
	// exact arithmetic of the exhaustive path.
	var fillBase float64
	for i := range srcs {
		if err := scans[i].resolve(&srcs[i], def, m); err != nil {
			return nil, fmt.Errorf("source %d: %w", i, err)
		}
		m += len(srcs[i].Query)
		if i == 0 {
			fillBase = scans[i].fillBase
		} else {
			fillBase += scans[i].fillBase
		}
	}

	parts := refineSlices(scans)
	// Descending impact; order changes only the skipped work, never the
	// result.
	slices.SortStableFunc(parts, func(a, b docSlice) int { return descending(a.impact, b.impact) })

	if theta == nil {
		theta = NewTopKThreshold()
	}
	h := NewBoundedTopK(k, worseCand)
	for i := range parts {
		if err := scanSlice(scans, &parts[i], m, div, def, fillBase, h, theta); err != nil {
			return nil, err
		}
	}
	// Sized by what the scan and the domain can supply, never by k alone:
	// k is a caller's request and may be arbitrarily large.
	ranked := h.Ranked()
	n := min(k, len(ranked)+domain.Len())
	resDocs := make([]OID, 0, n)
	resScores := make([]float64, 0, n)
	for _, c := range ranked {
		resDocs = append(resDocs, c.doc)
		resScores = append(resScores, c.score)
	}
	resDocs, resScores, err := fillDefaults(scans, domain, fillBase/div, k, resDocs, resScores)
	if err != nil {
		return nil, err
	}

	out := New(KindOID, KindFloat)
	out.Head.oids = resDocs
	out.Tail.flts = resScores
	out.HKey = true
	return out, nil
}

// postingRange is one query term's [lo,hi) global posting positions in a
// segment, tagged with the term id that owns the block directory.
type postingRange struct {
	lo, hi int
	t      OID
}

// sourceScan is one source resolved against its segments: validated
// views, every term's posting range per segment, and each segment's
// nominal document range and impact.
type sourceScan struct {
	segs     []segScan
	ranges   []postingRange // segment g's ranges are ranges[g*len(query):][:len(query)]
	query    []OID
	weights  []float64
	fillBase float64 // the fold of a document matching no term: qlen·def resp. wtot·def
	off      int     // position of the source's first term in the concatenated query
}

// segScan is one segment of a source. [lo, hi) is its nominal document
// range: from the previous non-empty segment's end to one past its own
// last posting, so a source's ranges tile the document space in order.
// An empty segment (no postings at all) covers nothing: lo == hi.
type segScan struct {
	view   *BlockPostings
	lo, hi OID
	impact float64 // Σ weighted per-term score-surplus bounds
}

// resolve validates src's segments (a segment without its block columns
// — a legacy raw-layout segment that skipped the upgrade at open — fails
// here) and resolves every term's posting range once per segment.
func (ss *sourceScan) resolve(src *TopKSource, def float64, off int) error {
	if len(src.Segs) == 0 {
		return fmt.Errorf("bat: prunedtopk: no postings segments")
	}
	if src.Weights != nil {
		if len(src.Weights) != len(src.Query) {
			return fmt.Errorf("bat: prunedtopk: %d terms vs %d weights", len(src.Query), len(src.Weights))
		}
		wtot := 0.0
		for _, w := range src.Weights {
			if !(w >= 0) {
				return fmt.Errorf("bat: prunedtopk: negative or NaN weight %v", w)
			}
			wtot += w
		}
		if math.IsInf(wtot, 1) {
			return fmt.Errorf("bat: prunedtopk: weights sum to +Inf")
		}
		ss.fillBase = wtot * def
	} else {
		ss.fillBase = float64(len(src.Query)) * def
	}
	ss.query, ss.weights, ss.off = src.Query, src.Weights, off
	ss.segs = make([]segScan, len(src.Segs))
	ss.ranges = make([]postingRange, len(src.Segs)*len(src.Query))
	end := OID(0)
	for g, s := range src.Segs {
		bp, err := cachedBlockPostings(s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel)
		if err != nil {
			return fmt.Errorf("segment %d: %w", g, err)
		}
		seg := &ss.segs[g]
		seg.view, seg.lo, seg.hi = bp, end, end
		if bp.nblocks > 0 {
			if bp.lastDoc < end {
				return fmt.Errorf("segment %d: bat: prunedtopk: segments out of document order", g)
			}
			end = bp.lastDoc + 1
			seg.hi = end
		}
		ranges := ss.ranges[g*len(src.Query) : (g+1)*len(src.Query)]
		for i, t := range src.Query {
			// out-of-range terms get an empty range: they behave as
			// always-unmatched, like an in-dictionary term no document
			// contains
			lo, hi := 0, 0
			if int64(t) >= 0 && int(t) < bp.NTerms() {
				lo, hi = bp.TermRange(int(t))
			}
			ranges[i] = postingRange{lo: lo, hi: hi, t: t}
			if hi > lo {
				mb := bp.MaxBelief(int(t))
				if mb < def {
					mb = def
				}
				w := 1.0
				if src.Weights != nil {
					w = src.Weights[i]
				}
				seg.impact += w * (mb - def)
			}
		}
	}
	return nil
}

// segRanges returns segment g's per-term posting ranges.
func (ss *sourceScan) segRanges(g int) []postingRange {
	n := len(ss.query)
	return ss.ranges[g*n : (g+1)*n]
}

// docSlice is one piece [lo, hi) of the common refinement of the
// sources' document ranges: segs[s] is source s's one segment covering
// it, or -1 when the source has no postings that far.
type docSlice struct {
	lo, hi OID
	segs   []int
	impact float64
}

// refineSlices cuts the document space at every non-empty segment's end
// in any source. With one source the slices are exactly its non-empty
// segments, in order.
func refineSlices(scans []sourceScan) []docSlice {
	n := 0
	for s := range scans {
		n += len(scans[s].segs)
	}
	parts := make([]docSlice, 0, n)
	for s := range scans {
		for _, seg := range scans[s].segs {
			if seg.hi > seg.lo {
				parts = append(parts, docSlice{hi: seg.hi})
			}
		}
	}
	if len(scans) > 1 {
		slices.SortFunc(parts, func(a, b docSlice) int { return cmp.Compare(a.hi, b.hi) })
		u := 0
		for i := range parts {
			if i == 0 || parts[i].hi != parts[u-1].hi {
				parts[u] = parts[i]
				u++
			}
		}
		parts = parts[:u]
	}
	segIdx := make([]int, len(parts)*len(scans))
	for s := range scans {
		segs := scans[s].segs
		lo, g := OID(0), 0 // g: the source's first segment not ending before lo
		for i := range parts {
			sl := &parts[i]
			if s == 0 {
				sl.lo, sl.segs = lo, segIdx[i*len(scans):(i+1)*len(scans)]
			}
			for g < len(segs) && segs[g].hi <= lo {
				g++ // ends before the slice (or is empty)
			}
			if g < len(segs) {
				sl.segs[s] = g
				sl.impact += segs[g].impact
			} else {
				sl.segs[s] = -1
			}
			lo = sl.hi
		}
	}
	return parts
}

// fillDefaults merges default-scored (unmatched) documents into a ranked
// result when they can still enter the top k: they all score fillScore
// and tie-break by ascending OID, so the walk stops at the first one that
// no longer beats the tail. A document is "matched" when any segment of
// any source holds a posting for it under any of that source's terms.
func fillDefaults(scans []sourceScan, domain *BAT, fillScore float64, k int, docs []OID, scores []float64) ([]OID, []float64, error) {
	if len(docs) == k && scores[len(scores)-1] > fillScore {
		// The current tail strictly beats any default-scored document; on a
		// tie the walk below still runs, because a smaller unmatched OID wins.
		return docs, scores, nil
	}
	// Matched-document membership, sized by the larger of postings max and
	// domain max; sparse OID spaces fall back to a map.
	n := domain.Len()
	maxDoc := OID(0)
	for s := range scans {
		for g, seg := range scans[s].segs {
			for _, r := range scans[s].segRanges(g) {
				if r.hi > r.lo {
					if d := seg.view.termLastDoc(int(r.t)); d > maxDoc {
						maxDoc = d
					}
				}
			}
		}
	}
	if n > 0 {
		if d := domain.Head.OIDAt(n - 1); d > maxDoc {
			maxDoc = d
		}
	}
	var dense []bool
	var sparse map[OID]struct{}
	if uint64(maxDoc) < uint64(4*n+1024) {
		dense = make([]bool, maxDoc+1)
	} else {
		sparse = make(map[OID]struct{})
	}
	mark := func(d OID) {
		if dense != nil {
			dense[d] = true
		} else {
			sparse[d] = struct{}{}
		}
	}
	marked := func(d OID) bool {
		if dense != nil {
			return uint64(d) < uint64(len(dense)) && dense[d]
		}
		_, ok := sparse[d]
		return ok
	}
	cset := borrowBlockCursors(1)
	for s := range scans {
		for g, seg := range scans[s].segs {
			for _, r := range scans[s].segRanges(g) {
				c := &cset.cs[0]
				c.reset()
				c.bind(seg.view, int(r.t))
				for p := r.lo; p < r.hi; p++ {
					d, ok := c.docAt(p)
					if !ok {
						err := c.err
						releaseBlockCursors(cset)
						return nil, nil, err
					}
					mark(d)
				}
				c.flushStats()
			}
		}
	}
	releaseBlockCursors(cset)
	for i := 0; i < n; i++ {
		d := domain.Head.OIDAt(i)
		if marked(d) {
			continue
		}
		if len(docs) >= k {
			if !worseHit(scores[len(scores)-1], docs[len(docs)-1], fillScore, d) {
				break // every later unmatched doc is worse still
			}
			docs, scores = docs[:len(docs)-1], scores[:len(scores)-1]
		}
		// Insert (d, fillScore) keeping rank order.
		pos := sort.Search(len(docs), func(j int) bool { return worseHit(scores[j], docs[j], fillScore, d) })
		docs = append(docs, 0)
		scores = append(scores, 0)
		copy(docs[pos+1:], docs[pos:])
		copy(scores[pos+1:], scores[pos:])
		docs[pos], scores[pos] = d, fillScore
	}
	return docs, scores, nil
}
