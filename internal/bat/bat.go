package bat

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// BAT is a Binary Association Table: an ordered collection of BUNs
// (head, tail) pairs. BATs are the only bulk data structure of the physical
// layer; all Moa values are decomposed into them.
//
// Property flags (HSorted, TSorted, HKey, TKey, HDense) mirror Monet's BAT
// descriptors and are used by the operators to pick faster algorithms. The
// flags are conservative: a false flag means "unknown", not "violated".
type BAT struct {
	Head *Column
	Tail *Column

	HSorted bool // head values are non-decreasing
	TSorted bool // tail values are non-decreasing
	HKey    bool // head values are unique
	TKey    bool // tail values are unique

	// hash is the lazily built head hash index. It is stored atomically so
	// that concurrent readers may build and share it without a data race
	// (the BAT contents themselves are immutable during reads; Append
	// invalidates the index).
	hash atomic.Pointer[hashIndex]

	// blockView memoizes the validated block-postings view of the segment
	// this BAT is the _blkdoc column of (postcodec.go). Like hash it is
	// shared atomically between concurrent readers and invalidated by
	// Append; the memo dies with the BAT, so retired segments are not
	// pinned by any global cache.
	blockView atomic.Pointer[blockViewMemo]

	// Persistence state used by the BAT buffer pool (internal/storage):
	// dirty is set by Append and cleared by the pool after a checkpoint
	// writes the BAT's heap files. Views (Reverse, Mirror, Slice) are
	// fresh descriptors and do not share the bit; only the canonical BAT
	// registered with the pool is tracked.
	dirty atomic.Bool
}

// Dirty reports whether the BAT has been mutated since the buffer pool
// last checkpointed it (or since creation).
func (b *BAT) Dirty() bool { return b.dirty.Load() }

// MarkDirty flags the BAT as needing a rewrite at the next checkpoint.
// Append calls it automatically; callers that mutate a column's backing
// storage directly must call it themselves.
func (b *BAT) MarkDirty() { b.dirty.Store(true) }

// ClearDirty resets the dirty flag; the buffer pool calls it after the
// BAT's heap files have been durably written.
func (b *BAT) ClearDirty() { b.dirty.Store(false) }

// New creates an empty BAT with the given head and tail kinds.
func New(hk, tk Kind) *BAT {
	b := &BAT{Head: NewColumn(hk), Tail: NewColumn(tk)}
	if hk == KindVoid {
		b.HSorted, b.HKey = true, true
	}
	if tk == KindVoid {
		b.TSorted, b.TKey = true, true
	}
	return b
}

// NewDense creates a BAT with a void head [base, base+n) and an empty
// materialised tail of kind tk; the caller appends n tail values.
func NewDense(base OID, tk Kind) *BAT {
	b := &BAT{Head: NewVoid(base, 0), Tail: NewColumn(tk)}
	b.HSorted, b.HKey = true, true
	return b
}

// Len reports the number of BUNs.
func (b *BAT) Len() int { return b.Head.Len() }

// HDense reports whether the head is a dense void sequence.
func (b *BAT) HDense() bool { return b.Head.Kind() == KindVoid }

// Append inserts a BUN. It invalidates the hash index and (conservatively)
// the sortedness/key flags on materialised columns.
func (b *BAT) Append(h, t any) error {
	if err := b.Head.Append(h); err != nil {
		return err
	}
	if err := b.Tail.Append(t); err != nil {
		return err
	}
	b.hash.Store(nil)
	b.blockView.Store(nil)
	b.dirty.Store(true)
	if b.Head.Kind() != KindVoid {
		b.HSorted, b.HKey = false, false
	}
	if b.Tail.Kind() != KindVoid {
		b.TSorted, b.TKey = false, false
	}
	return nil
}

// AppendColumns appends every BUN of the parallel columns h and t in one
// step: the set-at-a-time form of Append, leaving the BAT exactly as
// len(h) single Appends of the same values would (contents, flags and
// dirty bit), but without boxing and with one index/flag reset. Kinds
// follow Append: a void side takes a void column continuing its dense
// sequence, an oid side takes oid or void values, every other side takes
// its own kind. Nothing is appended on error; an empty append is a no-op.
func (b *BAT) AppendColumns(h, t *Column) error {
	if h.Len() != t.Len() {
		return fmt.Errorf("bat: append %d head values with %d tail values", h.Len(), t.Len())
	}
	if h.Len() == 0 {
		return nil
	}
	if err := b.Head.canAppendAll(h); err != nil {
		return err
	}
	if err := b.Tail.canAppendAll(t); err != nil {
		return err
	}
	b.Head.appendAll(h)
	b.Tail.appendAll(t)
	b.hash.Store(nil)
	b.blockView.Store(nil)
	b.dirty.Store(true)
	if b.Head.Kind() != KindVoid {
		b.HSorted, b.HKey = false, false
	}
	if b.Tail.Kind() != KindVoid {
		b.TSorted, b.TKey = false, false
	}
	return nil
}

// MustAppend is Append that panics on a type mismatch; used by internal
// builders whose types are known statically.
func (b *BAT) MustAppend(h, t any) {
	if err := b.Append(h, t); err != nil {
		panic(err)
	}
}

// Reverse returns a view with head and tail swapped. O(1): columns are
// shared, so the result must be treated as read-only (all operators do).
func (b *BAT) Reverse() *BAT {
	return &BAT{
		Head: b.Tail, Tail: b.Head,
		HSorted: b.TSorted, TSorted: b.HSorted,
		HKey: b.TKey, TKey: b.HKey,
	}
}

// Mirror returns [head, head]: both columns are the head column.
func (b *BAT) Mirror() *BAT {
	return &BAT{
		Head: b.Head, Tail: b.Head,
		HSorted: b.HSorted, TSorted: b.HSorted,
		HKey: b.HKey, TKey: b.HKey,
	}
}

// Mark returns [head, void(base..)]: it renumbers the BUNs with fresh dense
// OIDs, the fundamental operator for introducing intermediate identities
// when flattening nested structures.
func (b *BAT) Mark(base OID) *BAT {
	return &BAT{
		Head: b.Head, Tail: NewVoid(base, b.Len()),
		HSorted: b.HSorted, TSorted: true,
		HKey: b.HKey, TKey: true,
	}
}

// Clone returns a deep copy (hash index not copied).
func (b *BAT) Clone() *BAT {
	return &BAT{
		Head: b.Head.clone(), Tail: b.Tail.clone(),
		HSorted: b.HSorted, TSorted: b.TSorted,
		HKey: b.HKey, TKey: b.TKey,
	}
}

// Slice returns BUNs [lo, hi) as a new BAT.
func (b *BAT) Slice(lo, hi int) (*BAT, error) {
	if lo < 0 || hi > b.Len() || lo > hi {
		return nil, fmt.Errorf("bat: slice [%d,%d) out of range 0..%d", lo, hi, b.Len())
	}
	return &BAT{
		Head: b.Head.slice(lo, hi), Tail: b.Tail.slice(lo, hi),
		HSorted: b.HSorted, TSorted: b.TSorted,
		HKey: b.HKey, TKey: b.TKey,
	}, nil
}

// Fetch returns the BUN at position i.
func (b *BAT) Fetch(i int) (h, t any, err error) {
	if i < 0 || i >= b.Len() {
		return nil, nil, fmt.Errorf("bat: fetch position %d out of range 0..%d", i, b.Len()-1)
	}
	return b.Head.Get(i), b.Tail.Get(i), nil
}

// Find performs a point lookup: the tail value of the first BUN whose head
// equals v. Uses the hash index (built on demand) for materialised heads and
// arithmetic for void heads. Returns ok=false if absent.
func (b *BAT) Find(v any) (any, bool) {
	if b.HDense() {
		o, okc := toOID(v)
		if !okc {
			return nil, false
		}
		i := int(int64(o) - int64(b.Head.Base()))
		if i < 0 || i >= b.Len() {
			return nil, false
		}
		return b.Tail.Get(i), true
	}
	h := b.ensureHash()
	i, ok := h.first(b.Head, v)
	if !ok {
		return nil, false
	}
	return b.Tail.Get(i), true
}

// Exists reports whether any BUN has head v.
func (b *BAT) Exists(v any) bool {
	_, ok := b.Find(v)
	return ok
}

// take builds a new BAT from the rows of b at idx, propagating no flags
// except head density facts recomputed by the caller.
func (b *BAT) take(idx []int) *BAT {
	return &BAT{Head: b.Head.take(idx), Tail: b.Tail.take(idx)}
}

// String renders up to 20 BUNs, MIL-style.
func (b *BAT) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s,%s]#%d{", b.Head.Kind(), b.Tail.Kind(), b.Len())
	n := b.Len()
	const maxShow = 20
	for i := 0; i < n && i < maxShow; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "<%s,%s>", FormatValue(b.Head.Get(i)), FormatValue(b.Tail.Get(i)))
	}
	if n > maxShow {
		fmt.Fprintf(&sb, ", …+%d", n-maxShow)
	}
	sb.WriteString("}")
	return sb.String()
}

// Validate checks internal consistency (column lengths, void density) and
// returns a descriptive error on violation. Used by tests and by storage
// after load.
func (b *BAT) Validate() error {
	if b.Head.Len() != b.Tail.Len() {
		return fmt.Errorf("bat: head length %d != tail length %d", b.Head.Len(), b.Tail.Len())
	}
	return nil
}
