package bat

// Frozen point-in-time views for snapshot-isolated queries.
//
// The online-indexing epochs in internal/core serve every query from an
// immutable snapshot of the database while inserts keep appending to the
// live BATs. A frozen view makes that safe without copying data: it is a
// fresh BAT descriptor whose columns capture the live column's backing
// slices *at their current length*. Appends to the live BAT either write
// past that length (memory the view never reads) or reallocate the
// backing array (the view keeps the old one), so readers of the view are
// race-free for as long as nobody overwrites existing elements in place —
// which is exactly the append-only discipline every stored column already
// follows (derived columns are replaced wholesale, never edited).
//
// Freeze must run while no append is in flight (the caller holds the
// owning store's write lock); the view itself is then safe for unlocked
// concurrent reads forever.

// Freeze returns an immutable point-in-time view of b sharing its backing
// storage. The caller must guarantee no append is concurrently mutating b
// during the call. The view carries no dirty state of its own — the
// canonical BAT remains the one the buffer pool tracks, and the pool
// keeps any mapping behind it until the pool closes.
func Freeze(b *BAT) *BAT {
	return &BAT{
		Head:    freezeColumn(b.Head),
		Tail:    freezeColumn(b.Tail),
		HSorted: b.HSorted, TSorted: b.TSorted,
		HKey: b.HKey, TKey: b.TKey,
	}
}

// freezeColumn copies the column descriptor and clips every slice's
// capacity to its length, so even an (erroneous) append to the frozen
// view reallocates instead of scribbling into the live column's array.
func freezeColumn(c *Column) *Column {
	out := &Column{kind: c.kind, base: c.base, n: c.n}
	out.oids = c.oids[:len(c.oids):len(c.oids)]
	out.ints = c.ints[:len(c.ints):len(c.ints)]
	out.flts = c.flts[:len(c.flts):len(c.flts)]
	out.strs = c.strs[:len(c.strs):len(c.strs)]
	out.bools = c.bools[:len(c.bools):len(c.bools)]
	out.bytes = c.bytes[:len(c.bytes):len(c.bytes)]
	return out
}

// EnsureIndex eagerly builds the head hash index (normally built lazily
// on the first point lookup). Epoch publication calls it on the frozen
// reversed-term view so the first query after a publish does not pay the
// O(postings) index build inside its latency budget. Concurrent callers
// are safe either way — the index is installed atomically — this only
// moves the cost.
func (b *BAT) EnsureIndex() {
	if !b.HDense() {
		b.ensureHash()
	}
}
