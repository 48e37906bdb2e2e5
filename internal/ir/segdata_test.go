package ir

import (
	"fmt"

	"mirror/internal/bat"
)

// readSegData decodes slot s into flat arrays, whichever layout it holds:
// the tests' view of a segment's logical postings.
func readSegData(a dbAccess, prefix string, slot int) (*segData, error) {
	if !segIsBlock(a, prefix, slot) {
		return readLegacyRawSeg(a, prefix, slot)
	}
	bp, err := segBlockView(a, prefix, slot)
	if err != nil {
		return nil, err
	}
	nt := bp.NTerms()
	np := 0
	if nt > 0 {
		_, np = bp.TermRange(nt - 1)
	}
	sd := &segData{starts: make([]int64, nt+1), maxb: make([]float64, nt)}
	p := bat.TermPostings{Docs: make([]bat.OID, 0, np), TFs: make([]int64, 0, np), Bels: make([]float64, 0, np)}
	for t := 0; t < nt; t++ {
		sd.starts[t] = int64(len(p.Docs))
		if err := p.AppendTerm(bp, t); err != nil {
			return nil, fmt.Errorf("ir: %s: segment %d term %d: %w", prefix, slot, t, err)
		}
		sd.maxb[t] = bp.MaxBelief(t)
	}
	sd.starts[nt] = int64(len(p.Docs))
	sd.docs, sd.tfs, sd.bels = p.Docs, p.TFs, p.Bels
	return sd, nil
}
