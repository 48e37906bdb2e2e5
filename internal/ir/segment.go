package ir

import (
	"fmt"
	"sort"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// Segmented CONTREP finalization for incremental online indexing.
//
// A monolithic Finalize re-derives the whole term-ordered postings
// representation on every run — acceptable for a batch build, hostile to
// insert-while-serving. The segmented layout splits the *derived*
// representation by document range into generation-numbered segments:
//
//	prefix_segdir                [void, int]  packed directory, two ints
//	                             per segment: pairEnd (exclusive end of
//	                             the segment's range in the raw _term/_doc
//	                             /_tf pair columns) and docEnd (exclusive
//	                             end of its document-OID range)
//	prefix_poststart …           segment slot 0 keeps the canonical
//	                             (unsuffixed) derived names, so stores
//	                             written before segmentation read as a
//	                             single segment
//	prefix_seg<s>_poststart …    slots s ≥ 1: the seven block-layout
//	                             columns per segment (codec.go)
//
// The term frequencies stored beside the doc ids in _blkdoc are what
// makes belief recomputation independent of segment *structure*: when
// collection statistics move (every delta publish moves df/N/avgdl, and
// exactness demands all beliefs reflect the new statistics), only the
// _blkbdir/_blkbel/_maxbel belief columns are rewritten — the counting
// sort that built _poststart/_blkstart/_blkdir/_blkdoc is never repeated
// for old segments.
//
// Invariants (the segment tests pin them):
//
//   - Segments partition both the raw pair range and the document-OID
//     range contiguously and in ascending order; every document's
//     postings live entirely in one segment.
//   - Within a segment, each term's postings run is document-ascending.
//   - Merging adjacent segments is pure concatenation per term (doc
//     ranges are adjacent), so compaction never touches beliefs.
//   - After RefinalizeSegments, the logical postings content (term →
//     (doc, tf, belief) multiset) equals what a monolithic Finalize over
//     the same raw columns derives; queries over the segment list are
//     BUN-for-BUN identical to queries over one merged segment
//     (bat.PrunedTopKSegs' guarantee).
//
// A segment's _poststart length records the dictionary size when the
// segment was derived; terms added later simply have no postings run in
// older segments (the scan treats out-of-range terms as empty).

// Per-segment derived column suffixes: the seven block-layout columns in
// the prunedtopk builtin's argument order, and the three columns only a legacy
// raw-layout segment holds (codec.go) — slot moves and drops must clear
// those too, so an un-upgraded slot never leaves stale twins behind.
var (
	blockSegSuffixes  = []string{"_poststart", "_blkstart", "_blkdir", "_blkdoc", "_blkbdir", "_blkbel", "_maxbel"}
	legacyRawSuffixes = []string{"_postdoc", "_posttf", "_postbel"}
	allSegSuffixes    = append(append([]string(nil), blockSegSuffixes...), legacyRawSuffixes...)
)

// SegColumn names slot s's derived column for the given canonical suffix
// ("_poststart" …): slot 0 owns the canonical name, higher slots are
// suffixed _seg<s>.
func SegColumn(prefix string, slot int, suffix string) string {
	if slot == 0 {
		return prefix + suffix
	}
	return fmt.Sprintf("%s_seg%d%s", prefix, slot, suffix)
}

// dbAccess abstracts locked (Structure hook) vs unlocked (core refresh)
// database access so one implementation serves both call sites.
type dbAccess struct {
	get func(string) (*bat.BAT, bool)
	put func(string, *bat.BAT)
	del func(string)
}

func access(db *moa.Database) dbAccess {
	return dbAccess{get: db.BAT, put: db.PutBAT, del: db.DropBAT}
}

func accessLocked(db *moa.Database) dbAccess {
	return dbAccess{get: db.BATL, put: db.PutBATL, del: db.DropBATL}
}

// segDir is the decoded segment directory.
type segDir struct {
	pairEnd []int // exclusive end in the raw pair columns, per segment
	docEnd  []int // exclusive end of the document-OID range, per segment
}

func (sd *segDir) count() int { return len(sd.pairEnd) }

func readSegDir(a dbAccess, prefix string) (*segDir, bool) {
	b, ok := a.get(prefix + "_segdir")
	if !ok || b.Len()%2 != 0 {
		return nil, false
	}
	sd := &segDir{}
	for i := 0; i < b.Len(); i += 2 {
		sd.pairEnd = append(sd.pairEnd, int(b.Tail.IntAt(i)))
		sd.docEnd = append(sd.docEnd, int(b.Tail.IntAt(i+1)))
	}
	return sd, true
}

// writeSegDir replaces the directory wholesale (never edited in place, so
// published epochs keep their frozen copy).
func writeSegDir(a dbAccess, prefix string, sd *segDir) {
	packed := make([]int64, 0, 2*sd.count())
	for s := 0; s < sd.count(); s++ {
		packed = append(packed, int64(sd.pairEnd[s]), int64(sd.docEnd[s]))
	}
	a.put(prefix+"_segdir", adoptDense(bat.ColumnOfInts(packed)))
}

// SegmentStat describes one index segment for introspection.
type SegmentStat struct {
	Slot     int   // directory position (0 = oldest)
	Docs     int   // documents covered (docEnd - previous docEnd)
	Postings int   // postings covered
	Terms    int   // dictionary size when the segment was derived
	Bytes    int64 // resident bytes of the segment's postings columns
}

// SegmentStats reports the segment layout of a CONTREP, oldest first; nil
// when the store predates segmentation (one monolithic representation).
func SegmentStats(db *moa.Database, prefix string) []SegmentStat {
	a := access(db)
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return nil
	}
	out := make([]SegmentStat, 0, sd.count())
	prevPair, prevDoc := 0, 0
	for s := 0; s < sd.count(); s++ {
		st := SegmentStat{Slot: s, Docs: sd.docEnd[s] - prevDoc, Postings: sd.pairEnd[s] - prevPair, Bytes: segBytes(a, prefix, s)}
		if b, ok := a.get(SegColumn(prefix, s, "_poststart")); ok && b.Len() > 0 {
			st.Terms = b.Len() - 1
		}
		out = append(out, st)
		prevPair, prevDoc = sd.pairEnd[s], sd.docEnd[s]
	}
	return out
}

// SegmentCount reports the number of index segments (0 when the store
// predates segmentation).
func SegmentCount(db *moa.Database, prefix string) int {
	sd, ok := readSegDir(access(db), prefix)
	if !ok {
		return 0
	}
	return sd.count()
}

// Segments returns a CONTREP's postings segments, oldest first, as the
// physical operators take them.
func Segments(db *moa.Database, prefix string) ([]bat.PostingsSeg, error) {
	segs := make([]bat.PostingsSeg, SegmentCount(db, prefix))
	for s := range segs {
		var err error
		if segs[s], err = segPostings(access(db), prefix, s); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// buildSegmentStructure derives slot's postings structure from the raw
// pair range [pairLo, pairHi): a counting sort by term, each term's run
// document-ascending (a repair sort runs if a caller ever violated
// insertion order). Beliefs are NOT computed here — they depend on
// collection statistics and are filled in by RefinalizeSegments (the
// segment gets zero-belief placeholders so it stays structurally
// loadable meanwhile).
func buildSegmentStructure(a dbAccess, prefix string, slot, pairLo, pairHi int) error {
	termB, ok1 := a.get(prefix + "_term")
	docB, ok2 := a.get(prefix + "_doc")
	tfB, ok3 := a.get(prefix + "_tf")
	dict, ok4 := a.get(prefix + "_dict")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("ir: %s: missing raw CONTREP columns", prefix)
	}
	if pairHi > termB.Len() || pairLo > pairHi {
		return fmt.Errorf("ir: %s: segment pair range [%d,%d) beyond %d postings", prefix, pairLo, pairHi, termB.Len())
	}
	nt := dict.Len()
	p := pairHi - pairLo
	starts := make([]int64, nt+1)
	for i := pairLo; i < pairHi; i++ {
		starts[termB.Tail.OIDAt(i)+1]++
	}
	for t := 1; t <= nt; t++ {
		starts[t] += starts[t-1]
	}
	postDoc := make([]bat.OID, p)
	postTF := make([]int64, p)
	cursor := append([]int64(nil), starts...)
	for i := pairLo; i < pairHi; i++ {
		t := termB.Tail.OIDAt(i)
		at := cursor[t]
		cursor[t]++
		postDoc[at] = docB.Tail.OIDAt(i)
		postTF[at] = tfB.Tail.IntAt(i)
	}
	for t := 0; t < nt; t++ {
		lo, hi := starts[t], starts[t+1]
		for i := lo + 1; i < hi; i++ {
			if postDoc[i] < postDoc[i-1] {
				sortSegRun(postDoc[lo:hi], postTF[lo:hi])
				break
			}
		}
	}
	return writeSegData(a, prefix, slot, &segData{starts: starts, docs: postDoc, tfs: postTF})
}

// sortSegRun repairs one term's (doc, tf) run into document order.
func sortSegRun(docs []bat.OID, tfs []int64) {
	idx := make([]int, len(docs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return docs[idx[a]] < docs[idx[b]] })
	nd := make([]bat.OID, len(docs))
	ntf := make([]int64, len(tfs))
	for i, j := range idx {
		nd[i], ntf[i] = docs[j], tfs[j]
	}
	copy(docs, nd)
	copy(tfs, ntf)
}

// AppendSegment extends the segment directory with a delta segment
// covering every raw posting and document appended since the last
// segment, deriving its structure. Returns false when nothing is pending.
// The caller must follow up with RefinalizeSegments before serving the
// new segment (beliefs and statistics are stale until then).
func AppendSegment(db *moa.Database, prefix string) (bool, error) {
	return appendSegment(access(db), prefix)
}

func appendSegment(a dbAccess, prefix string) (bool, error) {
	termB, ok1 := a.get(prefix + "_term")
	dlenB, ok2 := a.get(prefix + "_dlen")
	if !ok1 || !ok2 {
		return false, fmt.Errorf("ir: %s: missing raw CONTREP columns", prefix)
	}
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return false, fmt.Errorf("ir: %s is not segmented (run a full Finalize first)", prefix)
	}
	pairLo, docLo := 0, 0
	if n := sd.count(); n > 0 {
		pairLo, docLo = sd.pairEnd[n-1], sd.docEnd[n-1]
	}
	pairHi, docHi := termB.Len(), dlenB.Len()
	if pairHi == pairLo && docHi == docLo && sd.count() > 0 {
		// Nothing pending — but an empty directory still gets its first
		// (empty) segment, so a full Finalize of an empty collection keeps
		// publishing the canonical derived columns.
		return false, nil
	}
	slot := sd.count()
	if err := buildSegmentStructure(a, prefix, slot, pairLo, pairHi); err != nil {
		return false, err
	}
	sd.pairEnd = append(sd.pairEnd, pairHi)
	sd.docEnd = append(sd.docEnd, docHi)
	writeSegDir(a, prefix, sd)
	return true, nil
}

// RefinalizeSegments recomputes everything that depends on collection
// statistics — the _df/_stats columns and every segment's belief columns
// — plus the reversed dictionary, honouring a registered GlobalStats
// override exactly like the monolithic Finalize. Segment structure is
// left untouched. New derived BATs replace the old wholesale, so a
// published epoch's frozen views keep serving the pre-refresh state.
func RefinalizeSegments(db *moa.Database, prefix string) error {
	return refinalizeSegments(access(db), prefix, globalStatsFor(db, prefix))
}

// refinalizeSegments is RefinalizeSegments under the statistics override
// gs (nil: the collection's own statistics).
func refinalizeSegments(a dbAccess, prefix string, gs *GlobalStats) error {
	termB, ok1 := a.get(prefix + "_term")
	dlenB, ok2 := a.get(prefix + "_dlen")
	dict, ok3 := a.get(prefix + "_dict")
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("ir: %s: missing raw CONTREP columns", prefix)
	}
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return fmt.Errorf("ir: %s is not segmented (run a full Finalize first)", prefix)
	}
	if n := sd.count(); n == 0 {
		if termB.Len() != 0 || dlenB.Len() != 0 {
			return fmt.Errorf("ir: %s: segment directory does not cover the raw postings (AppendSegment first)", prefix)
		}
	} else if sd.pairEnd[n-1] != termB.Len() || sd.docEnd[n-1] != dlenB.Len() {
		return fmt.Errorf("ir: %s: segment directory does not cover the raw postings (AppendSegment first)", prefix)
	}

	// Collection statistics from the raw columns (identical arithmetic to
	// the monolithic Finalize). Document lengths are indexed by owner
	// OID, which runs densely over the n documents.
	n := dlenB.Len()
	var totalLen int64
	dlen := make([]int64, n)
	for i := 0; i < n; i++ {
		o := dlenB.Head.OIDAt(i)
		if o >= bat.OID(n) {
			return fmt.Errorf("ir: %s: document %d has a length row beyond the %d documents", prefix, o, n)
		}
		l := dlenB.Tail.IntAt(i)
		dlen[o] = l
		totalLen += l
	}
	avgdl := 0.0
	if n > 0 {
		avgdl = float64(totalLen) / float64(n)
	}

	// df from the per-segment offset partials: df(t) = Σ_s (start_s[t+1] −
	// start_s[t]). Integer sums, so this equals the monolithic count.
	df := make([]int64, dict.Len())
	for s := 0; s < sd.count(); s++ {
		startB, ok := a.get(SegColumn(prefix, s, "_poststart"))
		if !ok {
			return fmt.Errorf("ir: %s: segment %d lost its offsets", prefix, s)
		}
		for t := 0; t+1 < startB.Len() && t < len(df); t++ {
			df[t] += startB.Tail.IntAt(t+1) - startB.Tail.IntAt(t)
		}
	}

	// Sharded indexing: the registered override replaces the local view
	// of n, avgdl and df with the global one (see globalstats.go).
	if gs != nil {
		n = gs.N
		avgdl = gs.AvgDocLen
		for t := range df {
			df[t] = int64(gs.DF[dict.Tail.StrAt(t)])
		}
	}

	// Belief split by what each factor depends on: the idf factor per
	// term, the length norm per document, only the tf part per posting.
	bc := &beliefCalc{idf: make([]float64, len(df)), hasIDF: make([]bool, len(df)), norm: make([]float64, len(dlen))}
	for t, c := range df {
		bc.idf[t], bc.hasIDF[t] = termIDF(int(c), n)
	}
	for d, l := range dlen {
		bc.norm[d] = lenNorm(int(l), avgdl)
	}

	stats := []float64{float64(n), avgdl, DefaultBelief, float64(dict.Len())}

	// Per-segment beliefs and bounds. Belief is a pure per-posting
	// function of (term, document, tf), so no fold-order concern. Each
	// segment decodes its immutable doc/tf blocks and rewrites only the
	// belief columns (and their upward-quantized per-block bounds); the
	// structure columns are never re-encoded here.
	for s := 0; s < sd.count(); s++ {
		if err := refinalizeBlockSegment(a, prefix, s, bc); err != nil {
			return err
		}
	}

	a.put(prefix+"_df", adoptDense(bat.ColumnOfInts(df)))
	a.put(prefix+"_stats", adoptDense(bat.ColumnOfFloats(stats)))
	a.put(prefix+"_dictrev", dict.Reverse())
	return nil
}

// MergeSegments compacts segment slots [lo, hi) into one. Adjacent
// segments cover adjacent document ranges and every term run is
// document-ascending, so the merged run is pure per-term concatenation in
// slot order — beliefs are copied bit-exact, never recomputed (statistics
// do not move at a merge), and the merged per-term bound is the max of
// the slot bounds. Higher slots shift down; stale slot names are
// dropped.
func MergeSegments(db *moa.Database, prefix string, lo, hi int) error {
	a := access(db)
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return fmt.Errorf("ir: %s is not segmented", prefix)
	}
	if lo < 0 || hi > sd.count() || hi-lo < 2 {
		return fmt.Errorf("ir: %s: bad merge range [%d,%d) of %d segments", prefix, lo, hi, sd.count())
	}

	inputs := make([]*segData, 0, hi-lo)
	nt := 0
	np := int64(0)
	for s := lo; s < hi; s++ {
		data, err := readSegData(a, prefix, s)
		if err != nil {
			return fmt.Errorf("ir: %s: segment %d incomplete, cannot merge: %w", prefix, s, err)
		}
		if len(data.starts)-1 > nt {
			nt = len(data.starts) - 1
		}
		np += int64(len(data.docs))
		inputs = append(inputs, data)
	}

	merged := &segData{
		starts: make([]int64, nt+1),
		docs:   make([]bat.OID, 0, np),
		tfs:    make([]int64, 0, np),
		bels:   make([]float64, 0, np),
		maxb:   make([]float64, nt),
	}
	for t := 0; t < nt; t++ {
		merged.starts[t] = int64(len(merged.docs))
		for _, v := range inputs { // slot order == ascending doc ranges
			if t+1 >= len(v.starts) {
				continue
			}
			rlo, rhi := v.starts[t], v.starts[t+1]
			merged.docs = append(merged.docs, v.docs[rlo:rhi]...)
			merged.tfs = append(merged.tfs, v.tfs[rlo:rhi]...)
			merged.bels = append(merged.bels, v.bels[rlo:rhi]...)
			if t < len(v.maxb) && v.maxb[t] > merged.maxb[t] {
				merged.maxb[t] = v.maxb[t]
			}
		}
	}
	merged.starts[nt] = int64(len(merged.docs))

	// Install the merged segment at slot lo, shift survivors down, drop
	// the now-unused tail slot names, rewrite the directory. The shift
	// deletes any suffix absent at the source slot so a destination never
	// keeps a column from its previous occupant.
	if err := writeSegData(a, prefix, lo, merged); err != nil {
		return err
	}

	removed := hi - lo - 1
	for s := hi; s < sd.count(); s++ {
		for _, suffix := range allSegSuffixes {
			if b, ok := a.get(SegColumn(prefix, s, suffix)); ok {
				a.put(SegColumn(prefix, s-removed, suffix), b)
			} else {
				a.del(SegColumn(prefix, s-removed, suffix))
			}
		}
	}
	for s := sd.count() - removed; s < sd.count(); s++ {
		for _, suffix := range allSegSuffixes {
			a.del(SegColumn(prefix, s, suffix))
		}
	}

	nsd := &segDir{}
	nsd.pairEnd = append(nsd.pairEnd, sd.pairEnd[:lo]...)
	nsd.docEnd = append(nsd.docEnd, sd.docEnd[:lo]...)
	nsd.pairEnd = append(nsd.pairEnd, sd.pairEnd[hi-1])
	nsd.docEnd = append(nsd.docEnd, sd.docEnd[hi-1])
	nsd.pairEnd = append(nsd.pairEnd, sd.pairEnd[hi:]...)
	nsd.docEnd = append(nsd.docEnd, sd.docEnd[hi:]...)
	writeSegDir(a, prefix, nsd)
	return nil
}

// PickMerge chooses the next compaction for a tiered, bounded-fan-in
// policy: walking from the newest segment backwards, a segment joins the
// merge run while it is no larger than twice the run accumulated so far
// (so compaction stays logarithmic — small deltas merge often, a big base
// segment only when the tail has grown comparable), bounded by fanIn
// inputs. Returns ok=false when no run of ≥ 2 segments qualifies.
// Deterministic in sizes, which keeps WAL-replayed merges identical.
func PickMerge(sizes []int, fanIn int) (lo, hi int, ok bool) {
	n := len(sizes)
	if n < 2 || fanIn < 2 {
		return 0, 0, false
	}
	run := sizes[n-1]
	lo = n - 1
	for lo > 0 && n-lo < fanIn && sizes[lo-1] <= 2*run {
		lo--
		run += sizes[lo]
	}
	if n-lo < 2 {
		return 0, 0, false
	}
	return lo, n, true
}

// UpgradeLayout brings a CONTREP checkpointed by an earlier build to
// today's layout; core runs it on every loaded checkpoint, before WAL
// replay, refresh or the planner meet the store, and the next checkpoint
// persists the result. It is a no-op on a current store.
//   - A store from before segmentation gets its one segment
//     (ensureSegmented).
//   - Legacy raw-layout segments are re-encoded as blocks
//     (upgradeRawSegments).
//   - The pair-order belief column _bel and the reversed term view
//     _termrev, a second copy of the beliefs that earlier builds kept for
//     the exhaustive operators, are dropped: those read the segments.
func UpgradeLayout(db *moa.Database, prefix string) error {
	if err := upgradeRawSegments(db, prefix); err != nil {
		return err
	}
	if err := ensureSegmented(db, prefix); err != nil {
		return err
	}
	a := access(db)
	for _, suffix := range []string{"_bel", "_termrev"} {
		if _, ok := a.get(prefix + suffix); ok {
			a.del(prefix + suffix)
		}
	}
	return nil
}

// ensureSegmented upgrades a finalized CONTREP whose derived
// representation predates segmentation: the existing postings become
// segment 0 (structure re-derived from the pair columns — the old layout
// lacks _posttf) covering everything so far. Its beliefs are derived
// under the statistics the store was finalized with (its _df/_stats:
// a shard member's hold the global ones), so they are the beliefs it
// served. No-op when a directory exists or the CONTREP was never
// finalized.
func ensureSegmented(db *moa.Database, prefix string) error {
	a := access(db)
	if _, ok := readSegDir(a, prefix); ok {
		return nil
	}
	st, err := ReadStats(db, prefix)
	if err != nil {
		return nil // never finalized: the first Finalize segments it
	}
	dfB, ok1 := a.get(prefix + "_df")
	dict, ok2 := a.get(prefix + "_dict")
	if !ok1 || !ok2 {
		return fmt.Errorf("ir: %s: finalized without _df/_dict", prefix)
	}
	gs := &GlobalStats{N: st.N, AvgDocLen: st.AvgDocLen, DF: make(map[string]int, dfB.Len())}
	for t := 0; t < dfB.Len() && t < dict.Len(); t++ {
		gs.DF[dict.Tail.StrAt(t)] = int(dfB.Tail.IntAt(t))
	}
	writeSegDir(a, prefix, &segDir{})
	if _, err := appendSegment(a, prefix); err != nil {
		return err
	}
	return refinalizeSegments(a, prefix, gs)
}

// dropSegments removes every segmented derived column and the directory
// (the prelude to a full monolithic rebuild).
func dropSegments(a dbAccess, prefix string) {
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return
	}
	for s := 0; s < sd.count(); s++ {
		for _, suffix := range allSegSuffixes {
			a.del(SegColumn(prefix, s, suffix))
		}
	}
	a.del(prefix + "_segdir")
}
