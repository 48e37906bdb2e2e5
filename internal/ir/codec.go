package ir

import (
	"fmt"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// Postings segment storage.
//
// A derived postings segment is stored block-compressed:
// _poststart/_blkstart/_blkdir/_blkdoc/_blkbdir/_blkbel/_maxbel — fixed-
// size blocks of delta-compressed doc ids + term frequencies and
// dictionary-coded beliefs, with per-block upward-quantized max-belief
// bounds (bat/postcodec.go). The beliefs survive bit-exact and _maxbel is
// the exact per-term maximum. Segment build, merge and refinalize write
// only this layout, and the scan (bat.PrunedTopKSegs) reads only it.
//
// Stores checkpointed before the block codec existed hold the legacy raw
// layout instead — _poststart/_postdoc/_posttf/_postbel/_maxbel, three
// 8-byte columns per posting. That layout is a read-once input: every
// open runs UpgradeLayout, whose upgradeRawSegments decodes it
// (readLegacyRawSeg, the only raw code left) and re-encodes it as blocks;
// the next checkpoint persists the upgrade. Nothing writes it any more.

// segIsBlock reports whether segment slot s is stored block-compressed.
func segIsBlock(a dbAccess, prefix string, slot int) bool {
	_, ok := a.get(SegColumn(prefix, slot, "_blkdoc"))
	return ok
}

// segPostings assembles slot s's seven block columns.
func segPostings(a dbAccess, prefix string, slot int) (bat.PostingsSeg, error) {
	var cols [7]*bat.BAT
	for i, suffix := range blockSegSuffixes {
		b, ok := a.get(SegColumn(prefix, slot, suffix))
		if !ok {
			return bat.PostingsSeg{}, fmt.Errorf("ir: %s: segment %d lost %s", prefix, slot, suffix)
		}
		cols[i] = b
	}
	return bat.PostingsSeg{
		Start: cols[0], BlkStart: cols[1], BlkDir: cols[2], BlkDoc: cols[3],
		BlkBDir: cols[4], BlkBel: cols[5], MaxBel: cols[6],
	}, nil
}

// segBlockView assembles slot s's seven block columns into a validated
// decode view.
func segBlockView(a dbAccess, prefix string, slot int) (*bat.BlockPostings, error) {
	s, err := segPostings(a, prefix, slot)
	if err != nil {
		return nil, err
	}
	bp, err := bat.NewBlockPostings(s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel)
	if err != nil {
		return nil, fmt.Errorf("ir: %s: segment %d: %w", prefix, slot, err)
	}
	return bp, nil
}

// segData is one segment's postings as flat arrays — the form the legacy
// upgrade reads and segment build writes.
type segData struct {
	starts []int64
	docs   []bat.OID
	tfs    []int64
	bels   []float64
	maxb   []float64
}

// readLegacyRawSeg reads slot s of a pre-block-codec store: the five raw
// columns straight off disk. Nothing else validates them (CRC
// verification is optional and proves bytes, not structure), and the
// merge and the encoder slice by these offsets, so kinds, lengths and
// offsets are checked here: a corrupt legacy store is an error at open,
// never a panic. (A run that is not document-ascending is caught by the
// encoder every consumer of this data ends in.)
func readLegacyRawSeg(a dbAccess, prefix string, slot int) (*segData, error) {
	var cols [5]*bat.BAT
	for i, c := range []struct {
		suffix string
		kind   bat.Kind
	}{
		{"_poststart", bat.KindInt}, {"_postdoc", bat.KindOID}, {"_posttf", bat.KindInt},
		{"_postbel", bat.KindFloat}, {"_maxbel", bat.KindFloat},
	} {
		b, ok := a.get(SegColumn(prefix, slot, c.suffix))
		if !ok {
			return nil, fmt.Errorf("ir: %s: segment %d lost %s", prefix, slot, c.suffix)
		}
		if b.Tail.Kind() != c.kind {
			return nil, fmt.Errorf("ir: %s: segment %d: %s tail is %s, want %s", prefix, slot, c.suffix, b.Tail.Kind(), c.kind)
		}
		cols[i] = b
	}
	sd := &segData{
		// copied: the encoder adopts the offsets as the new _poststart,
		// and these may be a read-only mapping of the checkpoint file
		starts: append([]int64(nil), cols[0].Tail.Ints()...),
		docs:   cols[1].Tail.OIDs(),
		tfs:    cols[2].Tail.Ints(),
		bels:   cols[3].Tail.Floats(),
		maxb:   cols[4].Tail.Floats(),
	}
	if err := bat.CheckPostingOffsets(sd.starts, len(sd.docs)); err != nil {
		return nil, fmt.Errorf("ir: %s: segment %d: %w", prefix, slot, err)
	}
	if len(sd.tfs) != len(sd.docs) || len(sd.bels) != len(sd.docs) || len(sd.maxb) != len(sd.starts)-1 {
		return nil, fmt.Errorf("ir: %s: segment %d: legacy postings misaligned (%d docs, %d tfs, %d beliefs; %d bounds for %d terms)",
			prefix, slot, len(sd.docs), len(sd.tfs), len(sd.bels), len(sd.maxb), len(sd.starts)-1)
	}
	return sd, nil
}

// writeSegData stores flat postings arrays as slot s, deleting any legacy
// raw columns at that slot so upgraded or merged slots never carry stale
// twins. sd.bels may be nil for a structure-only write (the segment then
// gets zero-belief placeholders so it stays loadable; RefinalizeSegments
// overwrites them before the segment serves queries).
func writeSegData(a dbAccess, prefix string, slot int, sd *segData) error {
	seg, err := bat.EncodeBlockSegment(sd.starts, sd.docs, sd.tfs, sd.bels)
	if err != nil {
		return fmt.Errorf("ir: %s: segment %d: %w", prefix, slot, err)
	}
	putSegPostings(a, prefix, slot, seg)
	return nil
}

// putSegPostings installs seg's seven block columns as slot s and deletes
// any legacy raw columns left at that slot.
func putSegPostings(a dbAccess, prefix string, slot int, seg bat.PostingsSeg) {
	a.put(SegColumn(prefix, slot, "_poststart"), seg.Start)
	a.put(SegColumn(prefix, slot, "_blkstart"), seg.BlkStart)
	a.put(SegColumn(prefix, slot, "_blkdir"), seg.BlkDir)
	a.put(SegColumn(prefix, slot, "_blkdoc"), seg.BlkDoc)
	a.put(SegColumn(prefix, slot, "_blkbdir"), seg.BlkBDir)
	a.put(SegColumn(prefix, slot, "_blkbel"), seg.BlkBel)
	a.put(SegColumn(prefix, slot, "_maxbel"), seg.MaxBel)
	for _, suffix := range legacyRawSuffixes {
		a.del(SegColumn(prefix, slot, suffix))
	}
}

// refinalizeBlockSegment recomputes a segment's beliefs under the
// (possibly overridden) collection statistics: the immutable doc/tf
// blocks are decoded, per-posting beliefs recomputed, and only
// _blkbdir/_blkbel/_maxbel are rewritten — the structure columns never
// change after build.
func refinalizeBlockSegment(a dbAccess, prefix string, slot int, bc *beliefCalc) error {
	bp, err := segBlockView(a, prefix, slot)
	if err != nil {
		return err
	}
	nt := bp.NTerms()
	bele := bat.NewBlockBeliefsEncoder()
	maxb := make([]float64, nt)
	var docBuf [bat.PostingsBlockSize]bat.OID
	var tfBuf [bat.PostingsBlockSize]int64
	var bels []float64
	for t := 0; t < nt; t++ {
		blo, bhi := bp.TermBlocks(t)
		bels = bels[:0]
		for b := blo; b < bhi; b++ {
			cnt, err := bp.DecodeDocBlock(t, b, docBuf[:], tfBuf[:])
			if err != nil {
				return fmt.Errorf("ir: %s: segment %d term %d: %w", prefix, slot, t, err)
			}
			for i := 0; i < cnt; i++ {
				if docBuf[i] >= bat.OID(len(bc.norm)) {
					return fmt.Errorf("ir: %s: segment %d term %d: posting of document %d beyond the %d documents", prefix, slot, t, docBuf[i], len(bc.norm))
				}
				bels = append(bels, bc.belief(t, docBuf[i], tfBuf[i]))
			}
		}
		maxb[t] = bele.AddTerm(bels)
	}
	a.put(SegColumn(prefix, slot, "_blkbdir"), adoptDense(bat.ColumnOfInts(bele.BelDir)))
	a.put(SegColumn(prefix, slot, "_blkbel"), adoptDense(bat.ColumnOfBytes(bele.Data)))
	a.put(SegColumn(prefix, slot, "_maxbel"), adoptDense(bat.ColumnOfFloats(maxb)))
	return nil
}

// upgradeRawSegments re-encodes every legacy raw-layout segment of the
// CONTREP as a block segment (a no-op for block segments, and for stores
// that predate segmentation — ensureSegmented rebuilds those from the
// pair columns). Beliefs are copied bit-exact, so an upgraded store
// answers queries hit-for-hit identically. UpgradeLayout runs it.
func upgradeRawSegments(db *moa.Database, prefix string) error {
	a := access(db)
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return nil
	}
	for s := 0; s < sd.count(); s++ {
		if segIsBlock(a, prefix, s) {
			continue
		}
		data, err := readLegacyRawSeg(a, prefix, s)
		if err != nil {
			return err
		}
		if err := writeSegData(a, prefix, s, data); err != nil {
			return err
		}
	}
	return nil
}

// PostingsFootprint sums the storage of a CONTREP's derived postings
// columns across segments, next to the analytic size of the same postings
// at 8 bytes per field — the compression ratio the block codec achieves
// on this store.
type PostingsFootprint struct {
	Segments int
	Postings int64 // total postings across segments
	Bytes    int64 // resident bytes of the derived postings columns
	RawBytes int64 // computed, not stored: 8·(nt+1) offsets + 8·nt bounds + 24 per posting (doc, tf, belief)
}

// Footprint reports the postings footprint of one CONTREP. Zero value
// when the store is not segmented.
func Footprint(db *moa.Database, prefix string) PostingsFootprint {
	a := access(db)
	var fp PostingsFootprint
	sd, ok := readSegDir(a, prefix)
	if !ok {
		return fp
	}
	fp.Segments = sd.count()
	for s := 0; s < sd.count(); s++ {
		startB, ok := a.get(SegColumn(prefix, s, "_poststart"))
		if !ok {
			continue
		}
		var nt, np int64
		if startB.Len() > 0 {
			nt = int64(startB.Len() - 1)
			np = startB.Tail.IntAt(startB.Len() - 1)
		}
		fp.Postings += np
		fp.RawBytes += 8*(nt+1) + 8*nt + 24*np
		fp.Bytes += segBytes(a, prefix, s)
	}
	return fp
}

// segBytes sums the resident bytes of slot s's seven postings columns.
func segBytes(a dbAccess, prefix string, slot int) int64 {
	var n int64
	for _, suffix := range blockSegSuffixes {
		if b, ok := a.get(SegColumn(prefix, slot, suffix)); ok {
			n += b.MemBytes()
		}
	}
	return n
}
