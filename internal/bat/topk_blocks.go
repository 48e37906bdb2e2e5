package bat

import (
	"math"
	"slices"
	"sync/atomic"
)

// The max-score scan loop of PrunedTopKSegs (topk.go): document-at-a-time
// evaluation with canonical-fold scoring over postings that arrive in
// PostingsBlockSize blocks (postcodec.go), decoded lazily into pooled
// cursors — and, block-max WAND style, whole blocks are skipped without
// decoding whenever the sum of the essential terms' quantized per-block
// bounds cannot beat the shared rising threshold. The bounds are
// quantized UP at encode time, so a skipped block provably holds no
// top-k document: pruned ≡ exhaustive stays BUN-for-BUN, ties included.

// blockScanStats counts block decode work across all scans (surfaced
// through BlockScanStats into moash \stats). skipped counts blocks the
// scan moved past without decoding; decoded counts actual decodes.
var blockScanStats struct {
	decoded atomic.Int64
	skipped atomic.Int64
}

// BlockScanStats reports the cumulative number of postings blocks
// decoded and skipped by block-compressed scans since process start.
func BlockScanStats() (decoded, skipped int64) {
	return blockScanStats.decoded.Load(), blockScanStats.skipped.Load()
}

// blockCursor is one query term's decode state over a block-layout
// segment. Buffers persist across pool reuses; reset() only clears the
// positions.
type blockCursor struct {
	bp *BlockPostings
	t  int // term index in the segment dictionary; -1 = no postings

	blk      int // decoded block index, -1 none
	plo, phi int // global posting span of the decoded block
	belsOK   bool

	dictOK  bool
	dict    []float64 // nil after load = raw-coded term
	dictOff int64

	decoded int64 // per-scan stats, flushed once per scan
	skipped int64

	err error

	docs []OID
	tfs  []int64
	bels []float64
	dbuf []float64 // dictionary storage (dict aliases it when loaded)
}

func (c *blockCursor) reset() {
	c.bp, c.t = nil, -1
	c.blk, c.plo, c.phi = -1, 0, 0
	c.belsOK, c.dictOK, c.dict, c.dictOff = false, false, nil, 0
	c.decoded, c.skipped = 0, 0
	c.err = nil
	if c.docs == nil {
		c.docs = make([]OID, PostingsBlockSize)
		c.tfs = make([]int64, PostingsBlockSize)
		c.bels = make([]float64, PostingsBlockSize)
	}
}

// bind points the cursor at term t of view bp (t == -1 for a term with
// no postings in the segment).
func (c *blockCursor) bind(bp *BlockPostings, t int) {
	c.bp, c.t = bp, t
	c.blk, c.plo, c.phi = -1, 0, 0
	c.belsOK, c.dictOK, c.dict, c.dictOff = false, false, nil, 0
	c.err = nil
}

// blockOf maps a global posting position of the cursor's term to its
// block index.
func (c *blockCursor) blockOf(pos int) int {
	return int(c.bp.blkStart[c.t]) + (pos-int(c.bp.start[c.t]))/PostingsBlockSize
}

// ensure decodes the block containing pos (doc ids only; beliefs are
// decoded on first belAt). Reports false — with c.err set — on corrupt
// data.
func (c *blockCursor) ensure(pos int) bool {
	if c.err != nil {
		return false
	}
	if c.blk >= 0 && pos >= c.plo && pos < c.phi {
		return true
	}
	b := c.blockOf(pos)
	if _, err := c.bp.DecodeDocBlock(c.t, b, c.docs, nil); err != nil {
		c.err = err
		return false
	}
	c.blk = b
	c.plo, c.phi = c.bp.BlockSpan(c.t, b)
	c.belsOK = false
	c.decoded++
	return true
}

// docAt returns the doc id at global posting position pos.
func (c *blockCursor) docAt(pos int) (OID, bool) {
	if !c.ensure(pos) {
		return 0, false
	}
	return c.docs[pos-c.plo], true
}

// belAt returns the (bit-exact) belief at global posting position pos.
func (c *blockCursor) belAt(pos int) (float64, bool) {
	if !c.ensure(pos) {
		return 0, false
	}
	if !c.belsOK {
		if !c.dictOK {
			dict, off, err := c.bp.TermDict(c.t, c.dbuf)
			if err != nil {
				c.err = err
				return 0, false
			}
			c.dict, c.dictOff, c.dictOK = dict, off, true
			if dict != nil {
				c.dbuf = dict // keep the (possibly grown) backing array
			}
		}
		if err := c.bp.DecodeBelBlock(c.t, c.blk, c.dict, c.dictOff, c.bels); err != nil {
			c.err = err
			return 0, false
		}
		c.belsOK = true
	}
	return c.bels[pos-c.plo], true
}

// search returns the first global posting position in [lo, hi) whose
// doc id is ≥ d, decoding at most one block; blocks passed over count
// as skipped. On corrupt data it returns hi with c.err set.
func (c *blockCursor) search(lo, hi int, d OID) int {
	if lo >= hi {
		return hi
	}
	if c.err != nil {
		return hi
	}
	if c.blk >= 0 && lo >= c.plo && lo < c.phi && d <= OID(c.bp.blkDir[2*c.blk]) {
		// the answer is inside the already-decoded block: its lastDoc is
		// ≥ d and docs ascend, so no directory search is needed
		p, ph := lo, c.phi
		if ph > hi {
			ph = hi
		}
		for p < ph {
			mid := int(uint(p+ph) >> 1)
			if c.docs[mid-c.plo] >= d {
				ph = mid
			} else {
				p = mid + 1
			}
		}
		// p == hi only when the window was clamped by hi (the block's
		// lastDoc is ≥ d, so an unclamped window always contains a hit)
		return p
	}
	blo, bhi := c.blockOf(lo), c.blockOf(hi-1)
	// First block in [blo, bhi] whose lastDoc is ≥ d. Callers probe with
	// ascending doc ids, so the hit is usually within a block or two of
	// the cursor: gallop from blo to bracket it before binary searching
	// (lastDocs ascend within a term, so a probe with lastDoc < d rules
	// out every block at or below it).
	b, bh := blo, bhi+1
	for p, step := blo, 1; p <= bhi; p, step = p+step, step<<1 {
		if OID(c.bp.blkDir[2*p]) >= d {
			bh = p
			break
		}
		b = p + 1
	}
	for b < bh {
		mid := int(uint(b+bh) >> 1)
		if OID(c.bp.blkDir[2*mid]) >= d {
			bh = mid
		} else {
			b = mid + 1
		}
	}
	if b > bhi {
		c.skipped += int64(bhi - blo + 1)
		return hi
	}
	c.skipped += int64(b - blo)
	if b != c.blk {
		if !c.ensure(int(c.bp.start[c.t]) + (b-int(c.bp.blkStart[c.t]))*PostingsBlockSize) {
			return hi
		}
	}
	slo, shi := lo, hi
	if slo < c.plo {
		slo = c.plo
	}
	if shi > c.phi {
		shi = c.phi
	}
	pos, ph := slo, shi
	for pos < ph {
		mid := int(uint(pos+ph) >> 1)
		if c.docs[mid-c.plo] >= d {
			ph = mid
		} else {
			pos = mid + 1
		}
	}
	if pos == shi && shi < hi {
		// everything in this block's window is < d; the answer is in a
		// later block, beyond hi's clamp
		return hi
	}
	return pos
}

// flushStats publishes the per-scan decode counters.
func (c *blockCursor) flushStats() {
	if c.decoded != 0 {
		blockScanStats.decoded.Add(c.decoded)
	}
	if c.skipped != 0 {
		blockScanStats.skipped.Add(c.skipped)
	}
	c.decoded, c.skipped = 0, 0
}

// clip narrows the posting range [lo, hi) of the cursor's term to the
// documents in [dlo, dhi), cutting only the ends the caller asks for.
// The blocks it passes over belong to neighbouring slices, which scan
// them, so they do not count as skipped.
func (c *blockCursor) clip(lo, hi int, dlo, dhi OID, cutLo, cutHi bool) (int, int) {
	skipped := c.skipped
	if cutHi {
		hi = c.search(lo, hi, dhi)
	}
	if cutLo {
		lo = c.search(lo, hi, dlo)
	}
	c.skipped = skipped
	return lo, hi
}

// scanSlice runs the block-max scan over one slice of the document
// space: it borrows a cursor set over all m terms of all sources, binds
// each to its posting range in its source's segment covering the slice
// (clipped where the slice is smaller than the segment), runs the scan,
// and releases the cursors on every path.
func scanSlice(scans []sourceScan, sl *docSlice, m int, div, def, fillBase float64, h *BoundedTopK[topkCand], theta *TopKThreshold) error {
	cset := borrowBlockCursors(m)
	defer releaseBlockCursors(cset)
	sc := borrowScanScratch(m)
	defer releaseScanScratch(sc)
	terms := sc.terms
	for s := range scans {
		ss := &scans[s]
		g := sl.segs[s]
		var seg segScan
		var ranges []postingRange
		if g >= 0 {
			seg, ranges = ss.segs[g], ss.segRanges(g)
		}
		for j := range ss.query {
			i := ss.off + j
			terms[i] = qterm{qi: i, weight: 1}
			if ss.weights != nil {
				terms[i].weight = ss.weights[j]
			}
			if g < 0 || ranges[j].hi <= ranges[j].lo {
				cset.cs[i].bind(seg.view, -1)
				continue
			}
			c := &cset.cs[i]
			c.bind(seg.view, int(ranges[j].t))
			terms[i].cur, terms[i].hi = c.clip(ranges[j].lo, ranges[j].hi, sl.lo, sl.hi, sl.lo > seg.lo, sl.hi < seg.hi)
		}
	}
	err := maxscoreScanBlocks(cset.cs, terms, scans, div, def, fillBase, h, theta, sc)
	for i := range cset.cs {
		if err == nil && cset.cs[i].err != nil {
			err = cset.cs[i].err
		}
		cset.cs[i].flushStats()
	}
	return err
}

// maxscoreScanBlocks runs the max-score loop over one slice: the
// essential terms (largest bounds) are merged
// document-at-a-time, with block-max skipping; the non-essential tail is
// probed by binary search only while a document's score bound still
// clears the threshold. cs[i] is the cursor of terms[i]; terms must be
// sc.terms (sc supplies every working slice). Bounds are in fold-sum
// units (fillBase is the fold sum of a document matching nothing); the
// threshold is in score units, so it is compared as th·div.
func maxscoreScanBlocks(cs []blockCursor, terms []qterm, scans []sourceScan, div, def, fillBase float64, h *BoundedTopK[topkCand], theta *TopKThreshold, sc *scanScratch) error {
	m := len(terms)
	if m == 0 {
		return nil
	}
	for i := range terms {
		ub := 0.0
		if t := cs[i].t; t >= 0 && terms[i].hi > terms[i].cur {
			mb := cs[i].bp.MaxBelief(t)
			if mb < def {
				mb = def
			}
			ub = terms[i].weight * (mb - def)
		}
		terms[i].ub = ub
	}
	// Bound-descending order; suffixUB[j] bounds the surplus of terms
	// perm[j:]. Essential prefix perm[:e]: a document absent from all of it
	// is bounded by fillBase+suffixUB[e].
	perm := sc.perm
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return descending(terms[a].ub, terms[b].ub) })
	suffixUB := sc.suffix
	suffixUB[m] = 0
	for j := m - 1; j >= 0; j-- {
		suffixUB[j] = suffixUB[j+1] + terms[perm[j]].ub
	}
	e := m
	negInf := math.Inf(-1)

	// Per-candidate scratch, stamped instead of cleared (stamp arrives
	// zeroed from the pool).
	fbel := sc.fbel
	stamp := sc.stamp
	cur := 0

	// docs caches terms[i]'s current doc id: the candidate-selection and
	// scoring loops read a slice instead of re-resolving block state, and
	// refresh runs once per cursor advance. Exhausted cursors park at the
	// sentinel so both loops need no separate cur<hi guard (doc ids are
	// strictly below the domain, never MaxUint64).
	const exhausted = OID(math.MaxUint64)
	docs := sc.docs
	refresh := func(i int) bool {
		qt := &terms[i]
		if qt.cur < qt.hi {
			d, ok := cs[i].docAt(qt.cur)
			if !ok {
				return false
			}
			docs[i] = d
		} else {
			docs[i] = exhausted
		}
		return true
	}
	for i := range terms {
		if !refresh(i) {
			return cs[i].err
		}
	}

	shrink := func(lim float64) {
		for e > 0 && fillBase+suffixUB[e-1]+boundSlack <= lim {
			e--
		}
	}
	threshold := func() float64 {
		if w, ok := h.Worst(); ok && h.Full() {
			return w.score
		}
		return math.Inf(-1)
	}
	fail := func() error {
		for i := range cs {
			if cs[i].err != nil {
				return cs[i].err
			}
		}
		return nil
	}
	// Fence for the block-max check: after a failed check its inputs are
	// frozen until the threshold rises, a cursor crosses into a new block
	// (only possible once the candidate doc exceeds the fenced min
	// lastDoc), or an essential term exhausts — so the per-term bound
	// recomputation is gated on those events instead of running every
	// candidate.
	skipFence := OID(0)
	fenceTh := math.Inf(-1)
	fenced := false

	// Directory cache: the block under each cursor, its posting span,
	// last doc and weighted bound, refreshed only when the cursor leaves
	// the cached span. The skip loop re-reads this state once per block
	// combination; uncached, every read costs a blockOf division plus
	// three directory lookups, and on a warm (seeded) threshold — where
	// the whole scan is that loop — the difference is the query time.
	// Pooled scratch holds garbage spans, so empty them first.
	blkLo, blkHi := sc.blkLo, sc.blkHi
	blkIdx, blkLast, blkUB := sc.blkIdx, sc.blkLast, sc.blkUB
	for i := range terms {
		blkLo[i], blkHi[i] = 0, 0
	}
	dirRefresh := func(i int) {
		cur := terms[i].cur
		if cur >= blkLo[i] && cur < blkHi[i] {
			return
		}
		c := &cs[i]
		b := c.blockOf(cur)
		blkIdx[i] = b
		blkLo[i], blkHi[i] = c.bp.BlockSpan(c.t, b)
		blkLast[i] = c.bp.BlockLast(b)
		qm := c.bp.BlockMax(b)
		if qm < def {
			qm = def
		}
		blkUB[i] = terms[i].weight * (qm - def)
	}
	// th carries max(local k-th best, shared θ) across candidates. Both
	// sources are monotone — the heap's worst moves only on Offer, the
	// shared bound only rises — so th is maintained at those two events
	// instead of re-deriving it (two heap calls) per candidate. It prunes
	// against any finite threshold, not only a locally full heap: θ may
	// arrive seeded (a prior run's exact k-th score) or raised by another
	// shard, and it is always a valid global lower bound — a document
	// skipped under bound+slack ≤ θ can never belong to the global top k,
	// whether or not THIS scan has retained k candidates yet. lim is th
	// in fold-sum units, the bounds' (th·1 == th on one source).
	th := threshold()
	lim := th * div
	if th > negInf {
		shrink(lim)
	}
	for {
		if g := theta.Load(); g > th {
			th, lim = g, g*div
			shrink(lim)
		}
		best := exhausted
		for j := 0; j < e; j++ {
			if d := docs[perm[j]]; d < best {
				best = d
			}
		}
		if best == exhausted {
			return nil
		}
		if th > negInf && (!fenced || th > fenceTh || best > skipFence) {
			// Block-max skip: every unread essential posting with doc ≤
			// minLast lies in its term's current block (each active
			// essential block ends at ≥ minLast), so if the quantized
			// current-block bounds plus the non-essential suffix cannot
			// beat the threshold, no document up to minLast can enter
			// the top k. The loop advances through runs of skippable
			// block combinations using ONLY the directory — cursors hop
			// to the next block's start position without decoding — and
			// decodes at most one landing block per term once the run
			// ends. With a terminal (θ-memo seeded) threshold this is
			// what turns a repeat query into a directory walk.
			jumped := false
			lastSkip := OID(0)
			for {
				sumUB := 0.0
				minLast := OID(math.MaxUint64)
				active := false
				for j := 0; j < e; j++ {
					i := perm[j]
					if terms[i].cur >= terms[i].hi {
						continue
					}
					dirRefresh(i)
					sumUB += blkUB[i]
					if last := blkLast[i]; !active || last < minLast {
						minLast = last
					}
					active = true
				}
				if !(active && fillBase+sumUB+suffixUB[e]+boundSlack <= lim) {
					skipFence, fenceTh, fenced = minLast, th, true
					break
				}
				// Skippable: move every essential cursor whose current
				// block ends at minLast to its next block's first posting
				// (the in-between postings are all ≤ minLast). Directory
				// arithmetic only — no decode. The cached state is fresh
				// here (dirRefresh ran in the bound pass just above).
				for j := 0; j < e; j++ {
					i := perm[j]
					qt := &terms[i]
					if qt.cur >= qt.hi {
						continue
					}
					if blkLast[i] > minLast {
						continue // target is inside this block; land below
					}
					c := &cs[i]
					b := blkIdx[i]
					if b != c.blk {
						c.skipped++
					}
					t := c.t
					if nb := b + 1; nb < int(c.bp.blkStart[t+1]) {
						pos := blkHi[i] // next block starts where this span ends
						if pos > qt.hi {
							pos = qt.hi
						}
						if pos > qt.cur {
							qt.cur = pos
						}
					} else {
						qt.cur = qt.hi
					}
				}
				jumped, lastSkip = true, minLast
			}
			if jumped {
				// Land exactly past the last skipped document; decodes at
				// most one block per essential term. Refresh every essential
				// cursor, not just the still-live ones: a skip run can move a
				// cursor to exhaustion, and its docs[i] cache would otherwise
				// hold a stale doc id that later matches a candidate and
				// indexes beliefs outside the decoded window.
				for j := 0; j < e; j++ {
					i := perm[j]
					qt := &terms[i]
					if qt.cur < qt.hi {
						qt.cur = cs[i].search(qt.cur, qt.hi, lastSkip+1)
					}
					if !refresh(i) {
						return cs[i].err
					}
				}
				if err := fail(); err != nil {
					return err
				}
				continue
			}
		}
		cur++
		known := 0.0
		for j := 0; j < e; j++ {
			i := perm[j]
			if docs[i] == best {
				qt := &terms[i]
				c := &cs[i]
				// refresh already decoded the block holding qt.cur, so
				// when its beliefs are in too this is a plain slice read
				var bel float64
				if c.belsOK {
					bel = c.bels[qt.cur-c.plo]
				} else {
					var ok bool
					if bel, ok = c.belAt(qt.cur); !ok {
						return c.err
					}
				}
				fbel[qt.qi], stamp[qt.qi] = bel, cur
				known += qt.weight * (bel - def)
				qt.cur++
				switch {
				case qt.cur >= qt.hi:
					docs[i] = exhausted
					fenced = false
				case qt.cur < c.phi:
					docs[i] = c.docs[qt.cur-c.plo]
				default:
					if !refresh(i) {
						return c.err
					}
				}
			}
		}
		bound := fillBase + known + suffixUB[e]
		if bound+boundSlack <= lim {
			continue
		}
		pruned := false
		for j := e; j < m; j++ {
			qt := &terms[perm[j]]
			c := &cs[perm[j]]
			bound -= qt.ub
			pos := c.search(qt.cur, qt.hi, best)
			if c.err != nil {
				return c.err
			}
			if pos < qt.hi {
				d, ok := c.docAt(pos)
				if !ok {
					return c.err
				}
				if d == best {
					bel, ok := c.belAt(pos)
					if !ok {
						return c.err
					}
					fbel[qt.qi], stamp[qt.qi] = bel, cur
					bound += qt.weight * (bel - def)
					qt.cur = pos + 1
				} else {
					qt.cur = pos
				}
			} else {
				qt.cur = pos
			}
			if bound+boundSlack <= lim {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		// The canonical folds, exactly as SumBeliefs / WSumBeliefs compute
		// them per source, added left to right and divided as the
		// flattened [+] and [/] multiplexes do.
		score := 0.0
		for s := range scans {
			ss := &scans[s]
			fold := 0.0
			if ss.weights == nil {
				matched := 0
				for qi := ss.off; qi < ss.off+len(ss.query); qi++ {
					if stamp[qi] == cur {
						fold += fbel[qi]
						matched++
					}
				}
				fold += float64(len(ss.query)-matched) * def
			} else {
				for j, w := range ss.weights {
					if qi := ss.off + j; stamp[qi] == cur {
						fold += w * (fbel[qi] - def)
					}
				}
				fold += ss.fillBase
			}
			if s == 0 {
				score = fold
			} else {
				score += fold
			}
		}
		if div != 1 {
			score /= div
		}
		h.Offer(topkCand{doc: best, score: score})
		if h.Full() {
			if w := threshold(); w > th {
				th, lim = w, w*div
				shrink(lim)
			}
			theta.Raise(th)
		}
	}
}
