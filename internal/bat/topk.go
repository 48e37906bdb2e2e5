package bat

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// This file is the pruned ranked-retrieval operator of the physical layer:
// document-at-a-time max-score (WAND-family) evaluation over term-ordered
// postings with per-term belief upper bounds, feeding a bounded k-heap.
// Where GetBL + SumBeliefs + a full sort score and order the whole match
// set (O(matches + N log N) once the logical layer fills in defaults for
// the entire collection), PrunedTopKSegs visits only documents whose score
// *could* enter the current top k and returns the cut directly:
// O(matches · log k) with skipping, never a collection-sized intermediate.
//
// The operator consumes the block-compressed term-ordered postings
// CONTREP's Finalize derives (internal/ir; layout in postcodec.go), one
// PostingsSeg per index segment; the scan loop itself is in
// topk_blocks.go.
//
// Determinism contract: the returned ranking is BUN-for-BUN identical to
// exhaustively scoring every document with the *serial* fold
//
//	score(d) = Σ_{qi asc, matched} bel(q[qi], d) + (qlen − matched)·def
//
// (exactly SumBeliefs' arithmetic), ordering by score descending with OID
// ascending ties, and cutting at k. Candidate scores are computed with that
// fold verbatim; pruning bounds are padded by boundSlack so floating-point
// reassociation in the bound arithmetic can never skip a true top-k
// document. One call runs on one goroutine, so the result and the block
// counters are the same at any GOMAXPROCS; a shared threshold only decides
// which documents are *considered*, every returned score is the same
// canonical fold.

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
// Every ranking cut in the system (the pruned retrieval operator, ir.Rank,
// core's row ranking) runs on this one implementation.
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
	sort.Slice(h.items, func(i, j int) bool { return h.worse(h.items[j], h.items[i]) })
	return h.items
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
// document. Within one PrunedTopKSegs call the segments share one
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

// qterm is one query term's scan state within a segment.
type qterm struct {
	qi     int     // position in the original query (the canonical fold order)
	cur    int     // next unread posting position (also the search start)
	hi     int     // end of the term's posting range in the segment
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

// PrunedTopKSegs returns the top k documents of the query under the
// inference-network sum (weights == nil) or weighted sum (weights != nil,
// all ≥ 0) score, as [docOID, flt] ordered score descending / OID
// ascending, cut at k, over a LIST of postings segments that together
// partition the document space (each document's postings live entirely
// in one segment).
//
// Unweighted mode reproduces the full logical pipeline getbl + fill + rank:
// documents matching no query term score qlen·def and are merged in (by
// ascending OID) when the match set cannot fill the top k alone; domain
// supplies their OIDs and must enumerate them ascending. Weighted mode
// reproduces WSumBeliefs + rank: only matching documents appear, domain may
// be nil.
//
// The result is BUN-for-BUN identical to scanning the single segment
// obtained by merging the list: every candidate's score is the same
// canonical fold (all of a document's postings sit in one segment, so the
// fold order is unchanged), and the segments are scanned one after another
// into one heap under one rising threshold — the mechanism that also makes
// shard scans across stores return the single-store result. Segments may
// disagree on dictionary size (a segment published before later terms
// existed simply has no postings for them) and on per-term bounds (a
// per-segment bound is tighter, pruning more, never less correctly).
//
// theta, when non-nil, is an externally owned pruning threshold: a
// scatter-gather engine passes the same *TopKThreshold to every shard's
// scan of one query, so a hot shard's k-th best prunes the cold shards'
// scans. Sharing never changes the ranking (the threshold is always a
// valid global lower bound), only the amount of skipped work.
func PrunedTopKSegs(segs []PostingsSeg, query []OID, weights []float64, def float64, k int, domain *BAT, theta *TopKThreshold) (*BAT, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bat: prunedtopk: k must be positive, got %d", k)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("bat: prunedtopk: no postings segments")
	}
	// A segment without its block columns (a legacy raw-layout segment
	// that skipped the upgrade at open) fails validation here.
	views := make([]*BlockPostings, len(segs))
	for i, s := range segs {
		bp, err := cachedBlockPostings(s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		views[i] = bp
	}
	weighted := weights != nil
	if weighted {
		if len(weights) != len(query) {
			return nil, fmt.Errorf("bat: prunedtopk: %d terms vs %d weights", len(query), len(weights))
		}
		for _, w := range weights {
			if w < 0 {
				return nil, fmt.Errorf("bat: prunedtopk: negative weight %v (use the exhaustive path)", w)
			}
		}
	} else if domain == nil {
		return nil, fmt.Errorf("bat: prunedtopk: unweighted mode needs a domain for default-scored documents")
	}

	// fillBase is the score of a document matching nothing, in the exact
	// arithmetic of the exhaustive path (count(q)·def resp. wtot·def).
	var fillBase float64
	if weighted {
		wtot := 0.0
		for _, w := range weights {
			wtot += w
		}
		fillBase = wtot * def
	} else {
		fillBase = float64(len(query)) * def
	}

	// Resolve term ranges once per segment.
	segRanges := make([][]postingRange, len(views))
	segImpact := make([]float64, len(views))
	for vi, bp := range views {
		ranges := make([]postingRange, len(query))
		impact := 0.0
		for i, t := range query {
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
				if weighted {
					w = weights[i]
				}
				impact += w * (mb - def)
			}
		}
		segRanges[vi] = ranges
		segImpact[vi] = impact
	}
	// Visit segments in descending impact (sum of per-term score-surplus
	// bounds): the segment that can produce the highest scores is scanned
	// first, so the threshold reaches its terminal height early and the
	// remaining segments scan mostly above it. Order changes only the
	// skipped work, never the result (segRanges stays index-aligned with
	// views for fillDefaults).
	order := make([]int, len(views))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return segImpact[order[a]] > segImpact[order[b]] })

	if theta == nil {
		theta = NewTopKThreshold()
	}
	h := NewBoundedTopK(k, worseCand)
	for _, vi := range order {
		if err := scanBlockSegment(views[vi], segRanges[vi], query, weights, weighted, def, fillBase, h, theta); err != nil {
			return nil, fmt.Errorf("segment %d: %w", vi, err)
		}
	}
	ranked := h.Ranked()
	resDocs := make([]OID, 0, k)
	resScores := make([]float64, 0, k)
	for _, c := range ranked {
		resDocs = append(resDocs, c.doc)
		resScores = append(resScores, c.score)
	}

	if !weighted {
		var err error
		resDocs, resScores, err = fillDefaults(views, segRanges, domain, fillBase, k, resDocs, resScores)
		if err != nil {
			return nil, err
		}
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

// fillDefaults merges default-scored (unmatched) documents into a ranked
// result when they can still enter the top k: they all score fillBase and
// tie-break by ascending OID, so the walk stops at the first one that no
// longer beats the tail. A document is "matched" when any segment holds a
// posting for it under any query term.
func fillDefaults(views []*BlockPostings, segRanges [][]postingRange, domain *BAT, fillBase float64, k int, docs []OID, scores []float64) ([]OID, []float64, error) {
	if len(docs) == k && scores[len(scores)-1] > fillBase {
		// The current tail strictly beats any default-scored document; on a
		// tie the walk below still runs, because a smaller unmatched OID wins.
		return docs, scores, nil
	}
	// Matched-document membership, sized by the larger of postings max and
	// domain max; sparse OID spaces fall back to a map.
	n := domain.Len()
	maxDoc := OID(0)
	for vi, bp := range views {
		for _, r := range segRanges[vi] {
			if r.hi > r.lo {
				if d := bp.termLastDoc(int(r.t)); d > maxDoc {
					maxDoc = d
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
	for vi, bp := range views {
		for _, r := range segRanges[vi] {
			c := &cset.cs[0]
			c.reset()
			c.bind(bp, int(r.t))
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
	releaseBlockCursors(cset)
	for i := 0; i < n; i++ {
		d := domain.Head.OIDAt(i)
		if marked(d) {
			continue
		}
		if len(docs) >= k {
			if !worseHit(scores[len(scores)-1], docs[len(docs)-1], fillBase, d) {
				break // every later unmatched doc is worse still
			}
			docs, scores = docs[:len(docs)-1], scores[:len(scores)-1]
		}
		// Insert (d, fillBase) keeping rank order.
		pos := sort.Search(len(docs), func(j int) bool { return worseHit(scores[j], docs[j], fillBase, d) })
		docs = append(docs, 0)
		scores = append(scores, 0)
		copy(docs[pos+1:], docs[pos:])
		copy(scores[pos+1:], scores[pos:])
		docs[pos], scores[pos] = d, fillBase
	}
	return docs, scores, nil
}
