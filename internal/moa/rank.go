package moa

import (
	"sync"

	"mirror/internal/bat"
)

// Ranking cut over Result rows: the exhaustive-fallback counterpart of
// the pruned top-k operator, shared by the epoch query path, the RPC
// server and the sharded merge. The heap scratch is pooled with the same
// borrow/return discipline as the bat scan scratch
// (internal/lint/poolcheck-enforced, pooldebug-accounted).
//
// Raw rowPool access outside this file is a poolcheck diagnostic.
//
//poolcheck:poolfile

// maxPooledRows bounds the capacity of row scratch the pool retains, so
// an occasional huge k cannot pin collection-sized arrays per P forever.
const maxPooledRows = 1 << 12

// rowPool recycles the bounded-heap scratch between ranking cuts.
var rowPool = sync.Pool{New: func() any { return make([]Row, 0, 128) }}

// borrowRows returns empty row scratch; release with releaseRows.
func borrowRows() []Row {
	r := rowPool.Get().([]Row)
	rowsBorrowed()
	return r
}

// releaseRows hands row scratch back; oversized backing arrays are
// dropped instead of pooled.
func releaseRows(r []Row) {
	rowsReleased(r)
	if cap(r) > maxPooledRows {
		return
	}
	rowPool.Put(r[:0]) //nolint:staticcheck // slice reuse is the point
}

// RowWorse reports whether row a ranks strictly after row b under the
// SortByScoreDesc order: float scores descending, non-float values last,
// ties by ascending OID. It is a total order (OIDs are unique), so every
// selection built on it is independent of input order.
func RowWorse(a, b Row) bool {
	fa, oka := a.Value.(float64)
	fb, okb := b.Value.(float64)
	switch {
	case oka && okb && fa != fb:
		return fa < fb
	case oka != okb:
		return okb
	}
	return a.OID > b.OID
}

// TopKRows selects the k best rows under RowWorse — output identical to a
// full SortByScoreDesc cut at k, in O(N log k). The result reuses rows'
// backing array; the heap scratch itself is pooled internally.
func TopKRows(rows []Row, k int) []Row {
	if k >= len(rows) {
		k = len(rows)
	}
	scratch := borrowRows()
	h := bat.NewBoundedTopKInto(scratch, k, RowWorse)
	for _, r := range rows {
		h.Offer(r)
	}
	scratch = h.Ranked()
	out := append(rows[:0], scratch...)
	releaseRows(scratch)
	return out
}
