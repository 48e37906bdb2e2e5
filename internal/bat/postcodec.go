package bat

// Block-compressed postings codec (store format version 3).
//
// A segment's term-ordered postings are stored in fixed-size blocks of
// PostingsBlockSize entries (the last block of each term may be short):
//
//	_poststart  [void,int]   nterms+1 posting offsets
//	_blkstart   [void,int]   nterms+1 block offsets: term t owns blocks
//	                         [blkstart[t], blkstart[t+1])
//	_blkdir     [void,int]   2 ints per block: (lastDoc, docEnd) where
//	                         docEnd is the exclusive end offset of the
//	                         block's region in _blkdoc
//	_blkdoc     [void,bytes] per-block doc-id + tf data
//	_blkbdir    [void,int]   2 ints per block: (belEnd, qmaxBits) where
//	                         belEnd is the exclusive end offset of the
//	                         block's region in _blkbel and qmaxBits is
//	                         the float32 bit pattern of the block's max
//	                         belief rounded UP (a conservative bound)
//	_blkbel     [void,bytes] per-term belief data
//	_maxbel     [void,flt]   exact per-term max belief
//
// Doc blocks. Each block's _blkdoc region starts with one format byte.
// Format 0 (varint): count × (uvarint docDelta, uvarint tf). Deltas are
// relative to the previous doc id in the term; the first posting of a
// term uses prev = -1 (so delta = doc+1), and the first posting of a
// later block is relative to the previous block's lastDoc. Doc ids are
// strictly ascending within a term, so every delta is ≥ 1. Format 1
// (bitpacked): two width bytes (delta bits, tf bits), then the deltas
// packed LSB-first, then the tfs. The encoder picks whichever format is
// smaller per block.
//
// Belief data. Scores must stay bit-exact (only pruning bounds may be
// lossy), so beliefs are coded losslessly per term: a uvarint header K,
// and if K > 0 a dictionary of K distinct float64 values (ascending,
// 8-byte little-endian bit patterns) followed by one uvarint dictionary
// index per posting; if K == 0 the raw 8-byte bit pattern of every
// posting follows instead. CONTREP beliefs take few distinct values per
// term (they are a function of tf and document length), so the dict
// form usually codes a posting in one byte. The encoder falls back to
// raw whenever the dict form would not be smaller. _blkbdir carries the
// exclusive end offset of every block's index (or raw) region, so a
// scan can decode one block's beliefs without touching the rest of the
// term; the dictionary sits between the previous term's end and the
// first block's region.
//
// Decoders never panic on malformed input: every offset and count is
// validated up front (NewBlockPostings) or bounds-checked during decode,
// and corruption surfaces as an error from the scan operator.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// PostingsBlockSize is the number of postings per compressed block.
const PostingsBlockSize = 128

// maxBeliefDict caps the per-term belief dictionary size; terms with
// more distinct belief values fall back to raw 8-byte coding.
const maxBeliefDict = 4096

// blockFormat bytes in _blkdoc block headers.
const (
	blockFmtVarint  = 0
	blockFmtBitpack = 1
)

// QuantizeBoundUp rounds x up to the nearest float32, so the result is
// always ≥ x: the block-max bounds stored in _blkbdir stay conservative
// upper bounds after quantization.
func QuantizeBoundUp(x float64) uint32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return math.Float32bits(f)
}

// bitLen64 returns the number of bits needed to represent v (min 0).
func bitLen64(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// appendPacked appends vals packed width bits each, LSB-first. The
// accumulator flush keeps bits < 8 between values, so width must be
// ≤ 56 (wider values never fit alongside the carry; the encoder falls
// back to varint for those).
func appendPacked(dst []byte, vals []uint64, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	bits := 0
	for _, v := range vals {
		acc |= v << bits
		bits += width
		for bits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackInto decodes n values of width bits (LSB-first) from data into
// out, returning the number of bytes consumed or an error on overrun.
//
// This is the bitpack scan kernel: instead of feeding a byte-at-a-time
// accumulator (a data-dependent inner loop per value), each value is
// extracted from one unaligned 64-bit little-endian load at its bit
// offset — valid because bitOff%8 + width ≤ 7 + 57 = 64 for the ≤ 56
// bit widths the encoder emits. The bounds check is hoisted: values
// whose 8-byte window fits inside data decode in the branch-free loop,
// the last few fall through to a byte-assembling tail.
func unpackInto(data []byte, n, width int, out []uint64) (int, error) {
	if width == 0 {
		for i := 0; i < n; i++ {
			out[i] = 0
		}
		return 0, nil
	}
	need := (n*width + 7) / 8
	if need > len(data) {
		return 0, fmt.Errorf("bat: bitpacked block truncated (need %d bytes, have %d)", need, len(data))
	}
	mask := uint64(1)<<uint(width) - 1
	if width >= 64 {
		mask = ^uint64(0)
	}
	out = out[:n]
	// fast: every value whose containing 8-byte window is in range
	i, bitOff := 0, 0
	for ; i < n; i++ {
		byteOff := bitOff >> 3
		if byteOff+8 > len(data) {
			break
		}
		w := binary.LittleEndian.Uint64(data[byteOff:])
		out[i] = (w >> uint(bitOff&7)) & mask
		bitOff += width
	}
	// tail: assemble the final window byte by byte
	for ; i < n; i++ {
		byteOff := bitOff >> 3
		var w uint64
		for k := 0; k < 8 && byteOff+k < len(data); k++ {
			w |= uint64(data[byteOff+k]) << uint(8*k)
		}
		out[i] = (w >> uint(bitOff&7)) & mask
		bitOff += width
	}
	return need, nil
}

// BlockPostingsEncoder builds the structure columns of the block layout
// (_blkstart, _blkdir, _blkdoc) one term run at a time.
type BlockPostingsEncoder struct {
	BlkStart []int64 // nterms+1 after all AddTerm calls
	BlkDir   []int64 // 2 per block: lastDoc, docEnd
	Data     []byte  // _blkdoc blob

	deltas []uint64
	utfs   []uint64
}

// NewBlockPostingsEncoder returns an encoder sized for nterms terms.
func NewBlockPostingsEncoder(nterms int) *BlockPostingsEncoder {
	return &BlockPostingsEncoder{
		BlkStart: append(make([]int64, 0, nterms+1), 0),
		deltas:   make([]uint64, PostingsBlockSize),
		utfs:     make([]uint64, PostingsBlockSize),
	}
}

// AddTerm encodes one term's posting run. docs must be strictly
// ascending; tfs runs parallel to docs.
func (e *BlockPostingsEncoder) AddTerm(docs []OID, tfs []int64) error {
	if len(docs) != len(tfs) {
		return fmt.Errorf("bat: posting run: %d docs vs %d tfs", len(docs), len(tfs))
	}
	prev := int64(-1)
	for lo := 0; lo < len(docs); lo += PostingsBlockSize {
		hi := lo + PostingsBlockSize
		if hi > len(docs) {
			hi = len(docs)
		}
		n := hi - lo
		p := prev
		var maxDelta, maxTf uint64
		for i := 0; i < n; i++ {
			d := int64(docs[lo+i])
			if d <= p {
				return fmt.Errorf("bat: posting run not strictly ascending at %d (doc %d after %d)", lo+i, d, p)
			}
			delta := uint64(d - p)
			tf := tfs[lo+i]
			if tf < 0 {
				return fmt.Errorf("bat: negative term frequency %d", tf)
			}
			e.deltas[i] = delta
			e.utfs[i] = uint64(tf)
			if delta > maxDelta {
				maxDelta = delta
			}
			if uint64(tf) > maxTf {
				maxTf = uint64(tf)
			}
			p = d
		}
		// size both formats, keep the smaller
		varintSize := 0
		var vbuf [binary.MaxVarintLen64]byte
		for i := 0; i < n; i++ {
			varintSize += binary.PutUvarint(vbuf[:], e.deltas[i])
			varintSize += binary.PutUvarint(vbuf[:], e.utfs[i])
		}
		dw, tw := bitLen64(maxDelta), bitLen64(maxTf)
		packSize := 2 + (n*dw+7)/8 + (n*tw+7)/8
		if varintSize <= packSize || dw > 56 || tw > 56 {
			e.Data = append(e.Data, blockFmtVarint)
			for i := 0; i < n; i++ {
				e.Data = binary.AppendUvarint(e.Data, e.deltas[i])
				e.Data = binary.AppendUvarint(e.Data, e.utfs[i])
			}
		} else {
			e.Data = append(e.Data, blockFmtBitpack, byte(dw), byte(tw))
			e.Data = appendPacked(e.Data, e.deltas[:n], dw)
			e.Data = appendPacked(e.Data, e.utfs[:n], tw)
		}
		e.BlkDir = append(e.BlkDir, p, int64(len(e.Data)))
		prev = p
	}
	e.BlkStart = append(e.BlkStart, int64(len(e.BlkDir)/2))
	return nil
}

// BlockBeliefsEncoder builds the belief columns of the block layout
// (_blkbdir, _blkbel) one term run at a time, in the same block
// chunking as BlockPostingsEncoder. Belief values round-trip bit-exact;
// only the per-block qmax bound in _blkbdir is (upward) quantized.
type BlockBeliefsEncoder struct {
	BelDir []int64 // 2 per block: belEnd, qmaxBits
	Data   []byte  // _blkbel blob

	keys  []uint64 // scratch: the run's distinct keys, first appearance first
	slot  []uint32 // scratch: each posting's position in keys
	dict  []uint64 // scratch: keys, sorted
	rank  []uint32 // scratch: each entry of keys' position in dict
	idx   []uint32 // scratch: each posting's dictionary index
	table []uint32 // scratch: open-addressing hash of keys, 1-based, 0 = empty
}

// NewBlockBeliefsEncoder returns an empty belief encoder.
func NewBlockBeliefsEncoder() *BlockBeliefsEncoder {
	return &BlockBeliefsEncoder{}
}

// AddTerm encodes one term's belief run and returns the exact maximum
// belief of the run (0 for an empty run), for _maxbel.
//
// The dictionary is the run's distinct values (by bit pattern: exactness
// is defined on the stored bits) in ascending order. A hash table finds
// each posting's distinct value, so only the distinct values are sorted
// and ranked. The order is the IEEE total order, which is numeric order
// for every value a belief can take; only a run holding NaNs, or both
// zeros, orders those entries differently from a numeric sort (still
// decoding exactly).
func (e *BlockBeliefsEncoder) AddTerm(bels []float64) float64 {
	if len(bels) == 0 {
		return 0
	}
	if !e.distinct(bels) {
		return e.appendRun(bels, nil, nil) // over maxBeliefDict: raw
	}
	e.dict = append(e.dict[:0], e.keys...)
	slices.Sort(e.dict)
	e.rank = e.rank[:0]
	for _, k := range e.keys {
		r, _ := slices.BinarySearch(e.dict, k)
		e.rank = append(e.rank, uint32(r))
	}
	e.idx = e.idx[:0]
	for _, s := range e.slot {
		e.idx = append(e.idx, e.rank[s])
	}
	return e.appendRun(bels, e.dict, e.idx)
}

// distinct fills e.keys with the distinct belief keys of bels in order of
// first appearance and e.slot with each posting's position in e.keys. It
// stops, reporting false, once more than maxBeliefDict keys are found.
func (e *BlockBeliefsEncoder) distinct(bels []float64) bool {
	size := 4
	for size < 2*min(len(bels), maxBeliefDict+1) {
		size *= 2
	}
	if cap(e.table) < size {
		e.table = make([]uint32, size)
	}
	table := e.table[:size]
	clear(table)
	shift := 64 - bits.TrailingZeros(uint(size))
	mask := uint64(size - 1)
	e.keys, e.slot = e.keys[:0], e.slot[:0]
	for _, v := range bels {
		k := beliefKey(v)
		h := (k * 0x9e3779b97f4a7c15) >> shift
		for {
			s := table[h]
			if s == 0 {
				if len(e.keys) == maxBeliefDict {
					return false
				}
				e.keys = append(e.keys, k)
				table[h] = uint32(len(e.keys))
				e.slot = append(e.slot, uint32(len(e.keys)-1))
				break
			}
			if e.keys[s-1] == k {
				e.slot = append(e.slot, s-1)
				break
			}
			h = (h + 1) & mask
		}
	}
	return true
}

// appendRun writes one non-empty term run whose distinct belief keys,
// ascending, are dict; idx holds each posting's index into dict, or is nil
// when dict exceeds maxBeliefDict. The run is dictionary-coded when idx is
// given and the dictionary form is smaller than raw 8-byte coding, raw
// otherwise. Every block gets its upward-quantized maximum in BelDir; the
// run's exact maximum is returned. AddTerm and the segment merge
// (MergeBlockSegments) both write through here.
func (e *BlockBeliefsEncoder) appendRun(bels []float64, dict []uint64, idx []uint32) float64 {
	useDict := false
	if idx != nil {
		// dict coding must beat raw to be worth the indirection
		dictSize := uvarintLen(uint64(len(dict))) + 8*len(dict)
		for _, i := range idx {
			dictSize += uvarintLen(uint64(i))
		}
		useDict = dictSize < 1+8*len(bels)
	}
	if useDict {
		e.Data = binary.AppendUvarint(e.Data, uint64(len(dict)))
		for _, k := range dict {
			e.Data = binary.LittleEndian.AppendUint64(e.Data, math.Float64bits(beliefOfKey(k)))
		}
	} else {
		e.Data = binary.AppendUvarint(e.Data, 0)
	}
	max := math.Inf(-1)
	for lo := 0; lo < len(bels); lo += PostingsBlockSize {
		hi := lo + PostingsBlockSize
		if hi > len(bels) {
			hi = len(bels)
		}
		blkMax := math.Inf(-1)
		for i, v := range bels[lo:hi] {
			if useDict {
				e.Data = binary.AppendUvarint(e.Data, uint64(idx[lo+i]))
			} else {
				e.Data = binary.LittleEndian.AppendUint64(e.Data, math.Float64bits(v))
			}
			if v > blkMax {
				blkMax = v
			}
		}
		e.BelDir = append(e.BelDir, int64(len(e.Data)), int64(QuantizeBoundUp(blkMax)))
		if blkMax > max {
			max = blkMax
		}
	}
	return max
}

// beliefKey maps v to a key whose unsigned order is the IEEE total order
// of v: numeric order for non-NaN values, with -0 just below +0.
func beliefKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// beliefOfKey inverts beliefKey.
func beliefOfKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// BlockPostings is a validated read view over the block-layout columns
// of one segment. Constructing it proves every offset consistent, so
// the per-block decoders only have to bounds-check varint payloads.
type BlockPostings struct {
	start    []int64
	blkStart []int64
	blkDir   []int64
	docData  []byte
	belDir   []int64
	belData  []byte
	maxb     []float64
	nterms   int
	nblocks  int
	lastDoc  OID // greatest doc id of any posting (meaningless when nblocks == 0)
}

// NewBlockPostings validates the seven block-layout columns and wraps
// them. Malformed inputs produce an error, never a panic.
func NewBlockPostings(start, blkStart, blkDir, blkDoc, blkBDir, blkBel, maxBel *BAT) (*BlockPostings, error) {
	intTail := func(b *BAT, name string) ([]int64, error) {
		if b == nil || b.Tail == nil || b.Tail.Kind() != KindInt {
			return nil, fmt.Errorf("bat: block postings: %s must be [void,int]", name)
		}
		return b.Tail.Ints(), nil
	}
	bytesTail := func(b *BAT, name string) ([]byte, error) {
		if b == nil || b.Tail == nil || b.Tail.Kind() != KindBytes {
			return nil, fmt.Errorf("bat: block postings: %s must be [void,bytes]", name)
		}
		return b.Tail.Bytes(), nil
	}
	starts, err := intTail(start, "_poststart")
	if err != nil {
		return nil, err
	}
	bs, err := intTail(blkStart, "_blkstart")
	if err != nil {
		return nil, err
	}
	bd, err := intTail(blkDir, "_blkdir")
	if err != nil {
		return nil, err
	}
	dd, err := bytesTail(blkDoc, "_blkdoc")
	if err != nil {
		return nil, err
	}
	bbd, err := intTail(blkBDir, "_blkbdir")
	if err != nil {
		return nil, err
	}
	bel, err := bytesTail(blkBel, "_blkbel")
	if err != nil {
		return nil, err
	}
	if maxBel == nil || maxBel.Tail == nil || maxBel.Tail.Kind() != KindFloat {
		return nil, fmt.Errorf("bat: block postings: _maxbel must be [void,flt]")
	}
	maxb := maxBel.Tail.Floats()

	if len(starts) == 0 {
		return nil, fmt.Errorf("bat: block postings: empty _poststart")
	}
	nterms := len(starts) - 1
	if len(bs) != len(starts) {
		return nil, fmt.Errorf("bat: block postings: _blkstart has %d entries, want %d", len(bs), len(starts))
	}
	if len(maxb) != nterms {
		return nil, fmt.Errorf("bat: block postings: _maxbel has %d entries, want %d", len(maxb), nterms)
	}
	if len(bd)%2 != 0 || len(bbd)%2 != 0 {
		return nil, fmt.Errorf("bat: block postings: odd directory length")
	}
	nblocks := len(bd) / 2
	if len(bbd)/2 != nblocks {
		return nil, fmt.Errorf("bat: block postings: _blkbdir has %d blocks, _blkdir %d", len(bbd)/2, nblocks)
	}
	if starts[0] != 0 || bs[0] != 0 {
		return nil, fmt.Errorf("bat: block postings: offsets must start at 0")
	}
	if bs[nterms] != int64(nblocks) {
		return nil, fmt.Errorf("bat: block postings: _blkstart end %d, have %d blocks", bs[nterms], nblocks)
	}
	for t := 0; t < nterms; t++ {
		np := starts[t+1] - starts[t]
		nb := bs[t+1] - bs[t]
		if np < 0 || nb < 0 {
			return nil, fmt.Errorf("bat: block postings: offsets not monotone at term %d", t)
		}
		want := (np + PostingsBlockSize - 1) / PostingsBlockSize
		if nb != want {
			return nil, fmt.Errorf("bat: block postings: term %d has %d postings but %d blocks (want %d)", t, np, nb, want)
		}
		// per-term lastDoc must ascend for the block binary searches
		for b := bs[t] + 1; b < bs[t+1]; b++ {
			if bd[2*b] <= bd[2*(b-1)] {
				return nil, fmt.Errorf("bat: block postings: term %d block lastDocs not ascending", t)
			}
		}
	}
	prevEnd := int64(0)
	lastDoc := int64(0)
	for b := 0; b < nblocks; b++ {
		end := bd[2*b+1]
		if end < prevEnd || end > int64(len(dd)) {
			return nil, fmt.Errorf("bat: block postings: _blkdir offset %d out of range (prev %d, data %d)", end, prevEnd, len(dd))
		}
		prevEnd = end
		if bd[2*b] < 0 {
			return nil, fmt.Errorf("bat: block postings: negative last doc in block %d", b)
		}
		if bd[2*b] > lastDoc {
			lastDoc = bd[2*b]
		}
	}
	if nblocks > 0 && prevEnd != int64(len(dd)) {
		return nil, fmt.Errorf("bat: block postings: _blkdoc has %d trailing bytes", int64(len(dd))-prevEnd)
	}
	prevEnd = 0
	for b := 0; b < nblocks; b++ {
		end := bbd[2*b]
		if end < prevEnd || end > int64(len(bel)) {
			return nil, fmt.Errorf("bat: block postings: _blkbdir offset %d out of range (prev %d, data %d)", end, prevEnd, len(bel))
		}
		prevEnd = end
	}
	return &BlockPostings{
		start: starts, blkStart: bs, blkDir: bd, docData: dd,
		belDir: bbd, belData: bel, maxb: maxb, nterms: nterms,
		nblocks: nblocks, lastDoc: OID(lastDoc),
	}, nil
}

// blockViewMemo is a validated view plus the exact seven BATs it was
// built from; it hangs off the _blkdoc BAT (see BAT.blockView) so the
// O(blocks) validation of NewBlockPostings runs once per segment, not
// once per query, and is dropped with the segment itself.
type blockViewMemo struct {
	view                                           *BlockPostings
	start, blkStart, blkDir, blkBDir, blkBel, maxb *BAT
}

func sameInt64s(a, b []int64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameFloat64s(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func intBacked(b *BAT) bool   { return b != nil && b.Tail != nil && b.Tail.Kind() == KindInt }
func bytesBacked(b *BAT) bool { return b != nil && b.Tail != nil && b.Tail.Kind() == KindBytes }
func fltBacked(b *BAT) bool   { return b != nil && b.Tail != nil && b.Tail.Kind() == KindFloat }

// cachedBlockPostings is NewBlockPostings with per-segment memoization:
// when the same seven columns were validated before — same BATs, still
// handing out the same backing storage — the previous view is reused.
// Any column swap, reallocation or growth misses the memo and falls back
// to a full validation, so a hit can never serve stale offsets.
func cachedBlockPostings(start, blkStart, blkDir, blkDoc, blkBDir, blkBel, maxBel *BAT) (*BlockPostings, error) {
	if blkDoc == nil || blkDoc.Tail == nil {
		return NewBlockPostings(start, blkStart, blkDir, blkDoc, blkBDir, blkBel, maxBel)
	}
	if m := blkDoc.blockView.Load(); m != nil &&
		m.start == start && m.blkStart == blkStart && m.blkDir == blkDir &&
		m.blkBDir == blkBDir && m.blkBel == blkBel && m.maxb == maxBel {
		bp := m.view
		if bytesBacked(blkDoc) && sameBytes(bp.docData, blkDoc.Tail.Bytes()) &&
			intBacked(start) && sameInt64s(bp.start, start.Tail.Ints()) &&
			intBacked(blkStart) && sameInt64s(bp.blkStart, blkStart.Tail.Ints()) &&
			intBacked(blkDir) && sameInt64s(bp.blkDir, blkDir.Tail.Ints()) &&
			intBacked(blkBDir) && sameInt64s(bp.belDir, blkBDir.Tail.Ints()) &&
			bytesBacked(blkBel) && sameBytes(bp.belData, blkBel.Tail.Bytes()) &&
			fltBacked(maxBel) && sameFloat64s(bp.maxb, maxBel.Tail.Floats()) {
			return bp, nil
		}
	}
	bp, err := NewBlockPostings(start, blkStart, blkDir, blkDoc, blkBDir, blkBel, maxBel)
	if err != nil {
		return nil, err
	}
	blkDoc.blockView.Store(&blockViewMemo{
		view: bp, start: start, blkStart: blkStart, blkDir: blkDir,
		blkBDir: blkBDir, blkBel: blkBel, maxb: maxBel,
	})
	return bp, nil
}

// NTerms reports the number of terms covered by the view.
func (bp *BlockPostings) NTerms() int { return bp.nterms }

// TermRange reports term t's global posting range [lo, hi).
func (bp *BlockPostings) TermRange(t int) (lo, hi int) {
	return int(bp.start[t]), int(bp.start[t+1])
}

// TermBlocks reports term t's block index range [blo, bhi).
func (bp *BlockPostings) TermBlocks(t int) (blo, bhi int) {
	return int(bp.blkStart[t]), int(bp.blkStart[t+1])
}

// BlockSpan reports the global posting positions [plo, phi) covered by
// block b of term t.
func (bp *BlockPostings) BlockSpan(t, b int) (plo, phi int) {
	plo = int(bp.start[t]) + (b-int(bp.blkStart[t]))*PostingsBlockSize
	phi = plo + PostingsBlockSize
	if hi := int(bp.start[t+1]); phi > hi {
		phi = hi
	}
	return plo, phi
}

// BlockLast reports the last doc id of block b.
func (bp *BlockPostings) BlockLast(b int) OID { return OID(bp.blkDir[2*b]) }

// termLastDoc reports the greatest doc id of term t (which must have
// postings): its last block's directory entry, read without decoding.
func (bp *BlockPostings) termLastDoc(t int) OID { return bp.BlockLast(int(bp.blkStart[t+1]) - 1) }

// BlockMax reports block b's conservative max-belief bound (the upward
// quantized float32 stored at encode time).
func (bp *BlockPostings) BlockMax(b int) float64 {
	return float64(math.Float32frombits(uint32(bp.belDir[2*b+1])))
}

// MaxBelief reports term t's exact maximum belief.
func (bp *BlockPostings) MaxBelief(t int) float64 { return bp.maxb[t] }

// DecodeDocBlock decodes block b of term t into docs (and, when tfs is
// non-nil, term frequencies). Both slices must hold the block's posting
// count (BlockSpan). Returns the count or an error on corruption.
func (bp *BlockPostings) DecodeDocBlock(t, b int, docs []OID, tfs []int64) (int, error) {
	plo, phi := bp.BlockSpan(t, b)
	n := phi - plo
	if n <= 0 {
		return 0, fmt.Errorf("bat: decode of empty block %d", b)
	}
	lo := int64(0)
	if b > 0 {
		lo = bp.blkDir[2*(b-1)+1]
	}
	hi := bp.blkDir[2*b+1]
	data := bp.docData[lo:hi]
	prev := int64(-1)
	if b > int(bp.blkStart[t]) {
		prev = bp.blkDir[2*(b-1)] // previous block's lastDoc
	}
	if len(data) < 1 {
		return 0, fmt.Errorf("bat: doc block %d empty", b)
	}
	switch data[0] {
	case blockFmtVarint:
		// Batched varint kernel: the whole block decodes in one loop with
		// the varints inlined — no per-posting binary.Uvarint calls. Doc
		// deltas and tfs are single-byte in the overwhelmingly common
		// case, so each iteration first tries the two-single-byte fast
		// path (one combined bounds check, no continuation-bit loops) and
		// only multi-byte values take the generic path.
		pos := 1
		for i := 0; i < n; i++ {
			var delta, tf uint64
			if pos+2 <= len(data) && data[pos]|data[pos+1] < 0x80 {
				delta, tf = uint64(data[pos]), uint64(data[pos+1])
				pos += 2
			} else {
				var w int
				delta, w = binary.Uvarint(data[pos:])
				if w <= 0 {
					return 0, fmt.Errorf("bat: doc block %d: bad delta at posting %d", b, i)
				}
				pos += w
				tf, w = binary.Uvarint(data[pos:])
				if w <= 0 {
					return 0, fmt.Errorf("bat: doc block %d: bad tf at posting %d", b, i)
				}
				pos += w
			}
			if delta == 0 {
				return 0, fmt.Errorf("bat: doc block %d: bad delta at posting %d", b, i)
			}
			next := prev + int64(delta)
			if next < 0 {
				return 0, fmt.Errorf("bat: doc block %d: doc id overflow", b)
			}
			prev = next
			docs[i] = OID(next)
			if tfs != nil {
				tfs[i] = int64(tf)
			}
		}
	case blockFmtBitpack:
		if len(data) < 3 {
			return 0, fmt.Errorf("bat: doc block %d: truncated bitpack header", b)
		}
		dw, tw := int(data[1]), int(data[2])
		if dw < 1 || dw > 56 || tw > 56 {
			return 0, fmt.Errorf("bat: doc block %d: bad bit widths %d/%d", b, dw, tw)
		}
		var scratch [PostingsBlockSize]uint64
		used, err := unpackInto(data[3:], n, dw, scratch[:n])
		if err != nil {
			return 0, fmt.Errorf("bat: doc block %d: %w", b, err)
		}
		for i := 0; i < n; i++ {
			if scratch[i] == 0 {
				return 0, fmt.Errorf("bat: doc block %d: zero delta at posting %d", b, i)
			}
			next := prev + int64(scratch[i])
			if next < 0 {
				return 0, fmt.Errorf("bat: doc block %d: doc id overflow", b)
			}
			prev = next
			docs[i] = OID(next)
		}
		if tfs != nil {
			if _, err := unpackInto(data[3+used:], n, tw, scratch[:n]); err != nil {
				return 0, fmt.Errorf("bat: doc block %d: %w", b, err)
			}
			for i := 0; i < n; i++ {
				tfs[i] = int64(scratch[i])
			}
		}
	default:
		return 0, fmt.Errorf("bat: doc block %d: unknown format %d", b, data[0])
	}
	if got := OID(bp.blkDir[2*b]); docs[n-1] != got {
		return 0, fmt.Errorf("bat: doc block %d: last doc %d disagrees with directory %d", b, docs[n-1], got)
	}
	return n, nil
}

// TermDict decodes term t's belief header, returning the dictionary
// (nil for raw coding) and the offset where the first block's
// per-posting region starts. dict is appended into dst to allow scratch
// reuse.
func (bp *BlockPostings) TermDict(t int, dst []float64) (dict []float64, dataOff int64, err error) {
	blo := bp.blkStart[t]
	base := int64(0)
	if blo > 0 {
		base = bp.belDir[2*(blo-1)]
	}
	data := bp.belData[base:]
	k, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, 0, fmt.Errorf("bat: belief header of term %d corrupt", t)
	}
	if k == 0 {
		return nil, base + int64(w), nil
	}
	if k > maxBeliefDict || int64(w)+int64(k)*8 > int64(len(data)) {
		return nil, 0, fmt.Errorf("bat: belief dictionary of term %d out of range (k=%d)", t, k)
	}
	dict = dst[:0]
	pos := w
	for i := uint64(0); i < k; i++ {
		dict = append(dict, math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])))
		pos += 8
	}
	return dict, base + int64(pos), nil
}

// belBlockData returns the bytes of block b of term t's belief region:
// the indices (or raw values) after the dictionary for the term's first
// block, from the previous block's end otherwise.
func (bp *BlockPostings) belBlockData(t, b int, dataOff int64) ([]byte, error) {
	lo := dataOff
	if b > int(bp.blkStart[t]) {
		lo = bp.belDir[2*(b-1)]
	}
	hi := bp.belDir[2*b]
	if lo < 0 || hi < lo || hi > int64(len(bp.belData)) {
		return nil, fmt.Errorf("bat: belief block %d region [%d,%d) out of range", b, lo, hi)
	}
	return bp.belData[lo:hi], nil
}

// DecodeBelBlock decodes block b of term t's beliefs into bels (length
// ≥ the block's posting count). dict and dataOff come from TermDict;
// pass the same values for every block of the term.
func (bp *BlockPostings) DecodeBelBlock(t, b int, dict []float64, dataOff int64, bels []float64) error {
	plo, phi := bp.BlockSpan(t, b)
	n := phi - plo
	data, err := bp.belBlockData(t, b, dataOff)
	if err != nil {
		return err
	}
	if dict == nil {
		if len(data) != n*8 {
			return fmt.Errorf("bat: raw belief block %d: %d bytes for %d postings", b, len(data), n)
		}
		for i := 0; i < n; i++ {
			bels[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		return nil
	}
	// Inlined dict-index varints: indices are < maxBeliefDict (4096), so
	// every index is 1 or 2 bytes — decode both shapes branch-cheap
	// without a per-posting binary.Uvarint call.
	pos := 0
	for i := 0; i < n; i++ {
		var idx uint64
		if pos < len(data) && data[pos] < 0x80 {
			idx = uint64(data[pos])
			pos++
		} else if pos+2 <= len(data) && data[pos+1] < 0x80 {
			idx = uint64(data[pos]&0x7f) | uint64(data[pos+1])<<7
			pos += 2
		} else {
			var w int
			idx, w = binary.Uvarint(data[pos:])
			if w <= 0 {
				return fmt.Errorf("bat: belief block %d: bad dict index at posting %d", b, i)
			}
			pos += w
		}
		if idx >= uint64(len(dict)) {
			return fmt.Errorf("bat: belief block %d: bad dict index at posting %d", b, i)
		}
		bels[i] = dict[idx]
	}
	if pos != len(data) {
		return fmt.Errorf("bat: belief block %d: %d trailing bytes", b, len(data)-pos)
	}
	return nil
}

// decodeBelIdx decodes block b of a dictionary-coded term t into idx
// (exactly the block's posting count long): each posting's index into the
// term's k-entry dictionary, whose per-posting region starts at dataOff.
func (bp *BlockPostings) decodeBelIdx(t, b int, dataOff int64, k int, idx []uint32) error {
	data, err := bp.belBlockData(t, b, dataOff)
	if err != nil {
		return err
	}
	pos := 0
	for i := range idx {
		v, w := uint64(0), 1
		if pos < len(data) && data[pos] < 0x80 {
			v = uint64(data[pos])
		} else if v, w = binary.Uvarint(data[pos:]); w <= 0 {
			return fmt.Errorf("bat: belief block %d: bad dict index at posting %d", b, i)
		}
		if v >= uint64(k) {
			return fmt.Errorf("bat: belief block %d: bad dict index at posting %d", b, i)
		}
		idx[i] = uint32(v)
		pos += w
	}
	if pos != len(data) {
		return fmt.Errorf("bat: belief block %d: %d trailing bytes", b, len(data)-pos)
	}
	return nil
}

// TermPostings accumulates decoded postings term after term, each term's
// run in document order: the flat form the exhaustive operators, the
// segment merge and the segment tests read. A nil TFs skips the term
// frequencies (the exhaustive operators read none).
type TermPostings struct {
	Docs []OID
	TFs  []int64
	Bels []float64
	dict []float64 // scratch for the current term's belief dictionary
}

// AppendTerm decodes every block of term t of bp onto p.
func (p *TermPostings) AppendTerm(bp *BlockPostings, t int) error {
	blo, bhi := bp.TermBlocks(t)
	if blo == bhi {
		return nil
	}
	dict, dictOff, err := bp.TermDict(t, p.dict)
	if err != nil {
		return err
	}
	if dict != nil {
		p.dict = dict
	}
	for b := blo; b < bhi; b++ {
		plo, phi := bp.BlockSpan(t, b)
		at, n := len(p.Docs), phi-plo
		p.Docs = slices.Grow(p.Docs, n)[:at+n]
		p.Bels = slices.Grow(p.Bels, n)[:at+n]
		var tfs []int64
		if p.TFs != nil {
			p.TFs = slices.Grow(p.TFs, n)[:at+n]
			tfs = p.TFs[at:]
		}
		if _, err := bp.DecodeDocBlock(t, b, p.Docs[at:], tfs); err != nil {
			return err
		}
		if err := bp.DecodeBelBlock(t, b, dict, dictOff, p.Bels[at:]); err != nil {
			return err
		}
	}
	return nil
}

// CheckPostingOffsets validates a segment's per-term posting offsets
// against its posting count: nterms+1 entries, starting at 0, monotone,
// ending at npostings — after which starts[t]:starts[t+1] slices any
// npostings-long column safely.
func CheckPostingOffsets(starts []int64, npostings int) error {
	if len(starts) == 0 || starts[0] != 0 {
		return fmt.Errorf("bat: posting offsets must start at 0")
	}
	for t := 0; t+1 < len(starts); t++ {
		if starts[t] > starts[t+1] {
			return fmt.Errorf("bat: posting offsets not monotone at term %d (%d > %d)", t, starts[t], starts[t+1])
		}
	}
	if end := starts[len(starts)-1]; end != int64(npostings) {
		return fmt.Errorf("bat: posting offsets end at %d, have %d postings", end, npostings)
	}
	return nil
}

// EncodeBlockSegment encodes one segment's flat term-ordered postings —
// starts holds nterms+1 offsets into docs/tfs/bels, each term's run
// document-ascending — into the seven block-layout columns. It is the
// only producer of the layout: segment build, merge and the legacy-raw
// upgrade (internal/ir) all come through here. bels may be nil for a
// structure-only encode: the segment then carries zero-belief
// placeholders so it stays loadable until the beliefs are computed.
// Beliefs survive bit-exact and MaxBel is their exact per-term maximum.
// starts is adopted as the Start column. Malformed input (offsets out of
// range or not monotone, a run not strictly ascending, a negative tf) is
// an error, never a panic.
func EncodeBlockSegment(starts []int64, docs []OID, tfs []int64, bels []float64) (PostingsSeg, error) {
	if err := CheckPostingOffsets(starts, len(docs)); err != nil {
		return PostingsSeg{}, err
	}
	if len(tfs) != len(docs) || (bels != nil && len(bels) != len(docs)) {
		return PostingsSeg{}, fmt.Errorf("bat: blockenc: postings misaligned (%d docs, %d tfs, %d beliefs)", len(docs), len(tfs), len(bels))
	}
	nterms := len(starts) - 1
	enc := NewBlockPostingsEncoder(nterms)
	bele := NewBlockBeliefsEncoder()
	maxb := make([]float64, nterms)
	var zeros []float64
	for t := 0; t < nterms; t++ {
		lo, hi := starts[t], starts[t+1]
		if err := enc.AddTerm(docs[lo:hi], tfs[lo:hi]); err != nil {
			return PostingsSeg{}, fmt.Errorf("bat: blockenc: term %d: %w", t, err)
		}
		var run []float64
		if bels != nil {
			run = bels[lo:hi]
		} else {
			for int64(len(zeros)) < hi-lo {
				zeros = append(zeros, 0)
			}
			run = zeros[:hi-lo]
		}
		maxb[t] = bele.AddTerm(run)
	}
	return blockSegment(starts, maxb, enc, bele), nil
}

// blockSegment adopts a segment's offsets, exact maxima and finished
// encoders as its seven columns.
func blockSegment(starts []int64, maxb []float64, enc *BlockPostingsEncoder, bele *BlockBeliefsEncoder) PostingsSeg {
	dense := func(tail *Column) *BAT {
		return &BAT{Head: NewVoid(0, tail.Len()), Tail: tail, HSorted: true, HKey: true}
	}
	return PostingsSeg{
		Start:    dense(ColumnOfInts(starts)),
		MaxBel:   dense(ColumnOfFloats(maxb)),
		BlkStart: dense(ColumnOfInts(enc.BlkStart)),
		BlkDir:   dense(ColumnOfInts(enc.BlkDir)),
		BlkDoc:   dense(ColumnOfBytes(enc.Data)),
		BlkBDir:  dense(ColumnOfInts(bele.BelDir)),
		BlkBel:   dense(ColumnOfBytes(bele.Data)),
	}
}
