package bat

import "sync"

// Pooled decode scratch for the top-k scan: borrow/return discipline
// for blockCursorSet buffers.
//
// Every scan in PrunedTopKSegs drives one cursor per query
// term, and each cursor decodes postings into private buffers (docs +
// beliefs + dictionary, PostingsBlockSize each). A query of m terms
// over s segments would otherwise allocate m·s such
// buffer sets per request; at server query rates that is pure allocator
// churn on the hottest path in the system, so cursor sets come from a
// sync.Pool with the same two enforcement layers as every query scratch pool:
//
//   - internal/lint/poolcheck statically checks every borrow is
//     released on every control-flow path;
//   - the pooldebug build tag (blockpool_debug.go) tracks live borrows
//     at run time, poisons released buffers, and counts leaks for the
//     pool-leak tests.
//
// Raw blockCursorPool access outside this file is a poolcheck
// diagnostic.
//
//poolcheck:poolfile

// blockCursorSet is one scan's worth of per-term decode cursors. The
// set is pooled as a unit (one borrow per scan, not one per term) so
// the borrow/return pairing stays statically checkable.
type blockCursorSet struct {
	cs []blockCursor
}

// blockCursorPool recycles cursor sets between scans.
var blockCursorPool = sync.Pool{New: func() any { return &blockCursorSet{} }}

// borrowBlockCursors returns a set of n reset cursors. The caller owns
// the set: return it with releaseBlockCursors exactly once when done
// (dropping it instead merely wastes the reuse, but under the pooldebug
// tag an unreleased borrow is a reportable leak).
func borrowBlockCursors(n int) *blockCursorSet {
	s := blockCursorPool.Get().(*blockCursorSet)
	if cap(s.cs) < n {
		grown := make([]blockCursor, n)
		copy(grown, s.cs[:cap(s.cs)])
		s.cs = grown
	}
	s.cs = s.cs[:n]
	for i := range s.cs {
		s.cs[i].reset()
	}
	blockCursorsBorrowed(s)
	return s
}

// releaseBlockCursors returns s to the pool. The caller must not retain
// s (or any cursor buffer) afterwards: under the pooldebug tag released
// buffers are poisoned. nil is tolerated (error paths release
// unconditionally).
func releaseBlockCursors(s *blockCursorSet) {
	if s == nil {
		return
	}
	blockCursorsReleased(s)
	blockCursorPool.Put(s)
}
