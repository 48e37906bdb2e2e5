package bat

import (
	"fmt"
	"slices"
)

// Segment merge without belief re-encoding.
//
// A merge concatenates, term by term, the runs of segments that cover
// adjacent ascending document ranges. Its output must be byte-identical
// to EncodeBlockSegment of the concatenated flat postings, and that
// encoder's belief dictionary is the sorted set of the run's distinct
// belief keys. Each input already stores exactly that set for its part of
// the run, sorted, so the merged dictionary is their sorted union: a k-way
// merge of the input dictionaries, after which every posting's stored
// index is remapped instead of being sorted and binary-searched again.
// Doc/tf blocks are re-chunked through BlockPostingsEncoder, and both the
// union and the encoder write through BlockBeliefsEncoder.appendRun, so
// the merge and the encoder apply the same dictionary-or-raw rule, block
// bounds and exact maximum.
//
// Any term where that shortcut could differ from the encoder falls back
// to decoding the beliefs and re-running AddTerm: an input stored raw, an
// input dictionary that is not strictly ascending, or a dictionary entry
// no posting uses. Inputs built by this package never show the last two.

// MergeBlockSegments merges block segments, given in ascending document
// order, into one: each term's merged run is the concatenation of the
// inputs' runs, and the seven columns equal EncodeBlockSegment of those
// concatenated postings byte for byte. The merged segment has as many
// terms as the largest input. A merged run that is not strictly
// document-ascending is an error, as it is for the encoder.
func MergeBlockSegments(views []*BlockPostings) (PostingsSeg, error) {
	nt := 0
	for _, bp := range views {
		nt = max(nt, bp.nterms)
	}
	starts := make([]int64, nt+1)
	enc := NewBlockPostingsEncoder(nt)
	bele := NewBlockBeliefsEncoder()
	maxb := make([]float64, nt)
	var m segMerger
	for t := 0; t < nt; t++ {
		m.parts = m.parts[:0]
		m.docs, m.tfs = m.docs[:0], m.tfs[:0]
		for _, bp := range views {
			if t >= bp.nterms {
				continue
			}
			blo, bhi := bp.TermBlocks(t)
			if blo == bhi {
				continue
			}
			m.parts = append(m.parts, mergePart{bp: bp})
			for b := blo; b < bhi; b++ {
				plo, phi := bp.BlockSpan(t, b)
				at, n := len(m.docs), phi-plo
				m.docs = slices.Grow(m.docs, n)[:at+n]
				m.tfs = slices.Grow(m.tfs, n)[:at+n]
				if _, err := bp.DecodeDocBlock(t, b, m.docs[at:], m.tfs[at:]); err != nil {
					return PostingsSeg{}, fmt.Errorf("bat: merge: term %d: %w", t, err)
				}
			}
		}
		if err := enc.AddTerm(m.docs, m.tfs); err != nil {
			return PostingsSeg{}, fmt.Errorf("bat: merge: term %d: %w", t, err)
		}
		var err error
		if maxb[t], err = m.beliefs(bele, t); err != nil {
			return PostingsSeg{}, fmt.Errorf("bat: merge: term %d: %w", t, err)
		}
		starts[t+1] = starts[t] + int64(len(m.docs))
	}
	return blockSegment(starts, maxb, enc, bele), nil
}

// mergePart is one input's share of the term being merged: its view and,
// once read, its dictionary's span of segMerger.keys and the offset of
// its first block's indices.
type mergePart struct {
	bp      *BlockPostings
	lo, hi  int // span of the part's dictionary in segMerger.keys
	dataOff int64
}

// segMerger holds the scratch one merge reuses term after term.
type segMerger struct {
	parts []mergePart
	docs  []OID
	tfs   []int64
	dict  []float64 // TermDict scratch
	keys  []uint64  // every part's dictionary keys, part after part
	heads []int     // k-way merge cursors into keys, one per part
	remap []uint32  // keys[i]'s position in union
	union []uint64  // the merged dictionary
	used  []bool    // union entries some posting indexes
	idx   []uint32  // merged run: each posting's union index
	bels  []float64 // merged run: each posting's belief
}

// beliefs appends the merged belief run of term t, whose parts m.parts
// holds in document order, and returns its exact maximum.
func (m *segMerger) beliefs(e *BlockBeliefsEncoder, t int) (float64, error) {
	if len(m.docs) == 0 {
		return 0, nil
	}
	ok, err := m.unionDicts(t)
	if err != nil {
		return 0, err
	}
	if ok {
		ok, err = m.remapIndices(t)
		if err != nil {
			return 0, err
		}
	}
	if !ok {
		return m.decodeAndAdd(e, t)
	}
	m.bels = m.bels[:0]
	for _, i := range m.idx {
		m.bels = append(m.bels, beliefOfKey(m.union[i]))
	}
	var idx []uint32
	if len(m.union) <= maxBeliefDict {
		idx = m.idx
	}
	return e.appendRun(m.bels, m.union, idx), nil
}

// unionDicts reads every part's dictionary into m.keys and merges them
// into m.union, recording each key's union position in m.remap. It
// reports false when some part is stored raw or its dictionary is not
// strictly ascending in key order.
func (m *segMerger) unionDicts(t int) (bool, error) {
	m.keys = m.keys[:0]
	for pi := range m.parts {
		p := &m.parts[pi]
		dict, off, err := p.bp.TermDict(t, m.dict)
		if err != nil {
			return false, err
		}
		if dict == nil {
			return false, nil
		}
		m.dict = dict
		p.lo, p.dataOff = len(m.keys), off
		for i, v := range dict {
			k := beliefKey(v)
			if i > 0 && k <= m.keys[len(m.keys)-1] {
				return false, nil
			}
			m.keys = append(m.keys, k)
		}
		p.hi = len(m.keys)
	}
	m.remap = slices.Grow(m.remap[:0], len(m.keys))[:len(m.keys)]
	m.union = m.union[:0]
	// The parts are few (a merge's fan-in), so each step scans every head.
	heads := m.heads[:0]
	for _, p := range m.parts {
		heads = append(heads, p.lo)
	}
	m.heads = heads
	for {
		least, found := uint64(0), false
		for pi, p := range m.parts {
			if h := heads[pi]; h < p.hi && (!found || m.keys[h] < least) {
				least, found = m.keys[h], true
			}
		}
		if !found {
			break
		}
		u := uint32(len(m.union))
		m.union = append(m.union, least)
		for pi, p := range m.parts {
			if h := heads[pi]; h < p.hi && m.keys[h] == least {
				m.remap[h] = u
				heads[pi]++
			}
		}
	}
	return true, nil
}

// remapIndices decodes every part's dictionary indices into m.idx as
// union indices. It reports false when some union entry is left unused
// (the encoder's dictionary would not hold it).
func (m *segMerger) remapIndices(t int) (bool, error) {
	m.idx = slices.Grow(m.idx[:0], len(m.docs))[:len(m.docs)]
	m.used = slices.Grow(m.used[:0], len(m.union))[:len(m.union)]
	clear(m.used)
	at := 0
	for _, p := range m.parts {
		remap := m.remap[p.lo:p.hi]
		blo, bhi := p.bp.TermBlocks(t)
		for b := blo; b < bhi; b++ {
			plo, phi := p.bp.BlockSpan(t, b)
			out := m.idx[at : at+phi-plo]
			if err := p.bp.decodeBelIdx(t, b, p.dataOff, len(remap), out); err != nil {
				return false, err
			}
			for i, j := range out {
				out[i] = remap[j]
				m.used[out[i]] = true
			}
			at += len(out)
		}
	}
	for _, u := range m.used {
		if !u {
			return false, nil
		}
	}
	return true, nil
}

// decodeAndAdd is the fallback: decode the parts' beliefs and encode the
// run through AddTerm.
func (m *segMerger) decodeAndAdd(e *BlockBeliefsEncoder, t int) (float64, error) {
	m.bels = slices.Grow(m.bels[:0], len(m.docs))[:len(m.docs)]
	at := 0
	for _, p := range m.parts {
		dict, off, err := p.bp.TermDict(t, m.dict)
		if err != nil {
			return 0, err
		}
		if dict != nil {
			m.dict = dict
		}
		blo, bhi := p.bp.TermBlocks(t)
		for b := blo; b < bhi; b++ {
			plo, phi := p.bp.BlockSpan(t, b)
			if err := p.bp.DecodeBelBlock(t, b, dict, off, m.bels[at:]); err != nil {
				return 0, err
			}
			at += phi - plo
		}
	}
	return e.AddTerm(m.bels), nil
}
