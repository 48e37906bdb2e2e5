package bat

// This file is the contract between the column store and the persistent
// BAT buffer pool (internal/storage): raw access to a column's backing
// slice so heap files can be written without boxing, and "adopt"
// constructors that wrap externally owned memory (an mmap'd heap file)
// as a Column without copying.
//
// Adopted slices are handed over with cap == len, so any Append on the
// column reallocates into private memory instead of writing through to
// the mapping (which the pool maps read-only). The pool keeps the
// mapping alive until the BAT is evicted; see storage.Pool.

// OIDs returns the backing slice of an oid column. The slice is the
// column's live storage: callers must treat it as read-only.
func (c *Column) OIDs() []OID { return c.oids }

// Ints returns the backing slice of an int column (read-only).
func (c *Column) Ints() []int64 { return c.ints }

// Floats returns the backing slice of a flt column (read-only).
func (c *Column) Floats() []float64 { return c.flts }

// Strs returns the backing slice of a str column (read-only).
func (c *Column) Strs() []string { return c.strs }

// Bools returns the backing slice of a bit column (read-only).
func (c *Column) Bools() []bool { return c.bools }

// Bytes returns the backing slice of a bytes column (read-only).
func (c *Column) Bytes() []byte { return c.bytes }

// ColumnOfOIDs wraps s as an oid column without copying.
func ColumnOfOIDs(s []OID) *Column { return &Column{kind: KindOID, oids: s[:len(s):len(s)]} }

// ColumnOfInts wraps s as an int column without copying.
func ColumnOfInts(s []int64) *Column { return &Column{kind: KindInt, ints: s[:len(s):len(s)]} }

// ColumnOfFloats wraps s as a flt column without copying.
func ColumnOfFloats(s []float64) *Column { return &Column{kind: KindFloat, flts: s[:len(s):len(s)]} }

// ColumnOfStrs wraps s as a str column without copying.
func ColumnOfStrs(s []string) *Column { return &Column{kind: KindStr, strs: s[:len(s):len(s)]} }

// ColumnOfBools wraps s as a bit column without copying.
func ColumnOfBools(s []bool) *Column { return &Column{kind: KindBool, bools: s[:len(s):len(s)]} }

// ColumnOfBytes wraps s as a bytes column without copying.
func ColumnOfBytes(s []byte) *Column { return &Column{kind: KindBytes, bytes: s[:len(s):len(s)]} }

// FromColumns assembles a BAT from two columns plus its property flags,
// the inverse of tearing one apart with Head/Tail. Used by the storage
// layer when rebuilding a BAT from loaded heap files.
func FromColumns(head, tail *Column, hsorted, tsorted, hkey, tkey bool) (*BAT, error) {
	b := &BAT{
		Head: head, Tail: tail,
		HSorted: hsorted, TSorted: tsorted,
		HKey: hkey, TKey: tkey,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// MemBytes estimates the resident size of the BAT's two columns in
// bytes.
func (b *BAT) MemBytes() int64 {
	return b.Head.memBytes() + b.Tail.memBytes()
}

func (c *Column) memBytes() int64 {
	switch c.kind {
	case KindVoid:
		return 16
	case KindOID:
		return int64(len(c.oids)) * 8
	case KindInt:
		return int64(len(c.ints)) * 8
	case KindFloat:
		return int64(len(c.flts)) * 8
	case KindStr:
		var n int64
		for _, s := range c.strs {
			n += int64(len(s)) + 16
		}
		return n
	case KindBool:
		return int64(len(c.bools))
	case KindBytes:
		return int64(len(c.bytes))
	}
	return 0
}
