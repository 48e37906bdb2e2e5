package bat

import "sync"

// Pooled per-scan scratch for the max-score loop: borrow/return
// discipline for the slices scanBlockSegment (the one borrower) needs
// per segment — the qterm states, the bound-descending permutation, the
// suffix bound table, the per-candidate belief/stamp arrays and the
// block-directory cache.
//
// Every PrunedTopKSegs call runs one max-score scan per segment; without
// pooling each scan allocates ~11 small slices, which
// at server query rates is the dominant remaining allocation on the hot
// path (the decode buffers are already pooled via blockCursorSet). The
// same two enforcement layers apply:
//
//   - internal/lint/poolcheck statically checks every borrow is
//     released on every control-flow path;
//   - the pooldebug build tag (scanpool_debug.go) tracks live borrows,
//     poisons released scratch, and counts leaks for the pool-leak
//     tests.
//
// Raw scanScratchPool access outside this file is a poolcheck
// diagnostic.
//
//poolcheck:poolfile

// scanScratch is one max-score scan's worth of working slices, pooled
// as a unit so the borrow/return pairing stays statically checkable.
// All slices are sized to the query length m by borrowScanScratch.
type scanScratch struct {
	terms  []qterm   // per-term scan state
	perm   []int     // term indices, bound-descending
	suffix []float64 // suffixUB: m+1 entries
	fbel   []float64 // per-candidate folded beliefs (stamped)
	stamp  []int     // per-candidate stamps (zeroed on borrow)
	docs   []OID     // cached current doc per term
	// Block-max directory cache: the posting span,
	// index, last doc and bound of the block under each term's cursor,
	// refreshed only when the cursor leaves the span — the skip loop
	// re-reads these per block combination, and without the cache every
	// read is a blockOf division plus three directory lookups. Validity
	// is positional (cur ∈ [blkLo, blkHi)); the scan must reset the
	// spans to empty before use, pooled garbage could alias.
	blkLo, blkHi []int
	blkIdx       []int
	blkLast      []OID
	blkUB        []float64
}

// scanScratchPool recycles scan scratch between scans.
var scanScratchPool = sync.Pool{New: func() any { return &scanScratch{} }}

// borrowScanScratch returns scratch sized for an m-term query. The
// caller owns it: return it with releaseScanScratch exactly once when
// the scan is done. stamp arrives zeroed (the stamping protocol needs a
// known starting value); the other slices hold garbage and must be
// fully written before reading.
func borrowScanScratch(m int) *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	// suffix needs m+1 entries, so a fresh entry must allocate even for a
	// zero-term scan (a seeded floor reaches shards where no query term
	// exists; the scan degenerates to an empty walk but still borrows).
	if cap(sc.terms) < m || cap(sc.suffix) < m+1 {
		sc.terms = make([]qterm, m)
		sc.perm = make([]int, m)
		sc.suffix = make([]float64, m+1)
		sc.fbel = make([]float64, m)
		sc.stamp = make([]int, m)
		sc.docs = make([]OID, m)
		sc.blkLo = make([]int, m)
		sc.blkHi = make([]int, m)
		sc.blkIdx = make([]int, m)
		sc.blkLast = make([]OID, m)
		sc.blkUB = make([]float64, m)
	}
	sc.terms = sc.terms[:m]
	sc.perm = sc.perm[:m]
	sc.suffix = sc.suffix[:m+1]
	sc.fbel = sc.fbel[:m]
	sc.stamp = sc.stamp[:m]
	sc.docs = sc.docs[:m]
	sc.blkLo = sc.blkLo[:m]
	sc.blkHi = sc.blkHi[:m]
	sc.blkIdx = sc.blkIdx[:m]
	sc.blkLast = sc.blkLast[:m]
	sc.blkUB = sc.blkUB[:m]
	for i := range sc.stamp {
		sc.stamp[i] = 0
	}
	scanScratchBorrowed(sc)
	return sc
}

// releaseScanScratch returns sc to the pool. The caller must not retain
// sc or any of its slices afterwards: under the pooldebug tag released
// scratch is poisoned. nil is tolerated (error paths release
// unconditionally).
func releaseScanScratch(sc *scanScratch) {
	if sc == nil {
		return
	}
	scanScratchReleased(sc)
	scanScratchPool.Put(sc)
}
