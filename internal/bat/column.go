// Package bat implements a binary-relational column store in the style of
// the Monet database kernel, which the Mirror DBMS used as its physical
// layer. The single data structure is the BAT (Binary Association Table): a
// two-column table of (head, tail) pairs called BUNs. All higher layers —
// the MIL interpreter, the Moa object algebra, and the inference-network
// retrieval operators — are expressed in terms of BATs and the operators in
// this package. See ARCHITECTURE.md at the repository root for how the
// layers fit together.
//
// # Invariants the rest of the system relies on
//
// Dense heads. A KindVoid column is a virtual dense OID sequence
// [base, base+n): nothing is materialised, lookups are arithmetic, and
// Append enforces density (the next OID must be base+n). The Moa
// decomposition gives every stored set void-headed value BATs, which is
// what makes positional joins and zero-copy persistence possible.
//
// Property flags. HSorted/TSorted/HKey/TKey are conservative: a false
// flag means "unknown", never "violated". Operators may only narrow
// their algorithm choice on a true flag. Append clears flags on
// materialised columns rather than recomputing them.
//
// Views share columns. Reverse, Mirror and Mark return O(1) descriptors
// over the same Column values; treat every BAT reachable from more than
// one descriptor as read-only (all operators do).
//
// Dirty tracking. Append sets the BAT's dirty bit (Dirty/MarkDirty/
// ClearDirty); the persistent buffer pool in internal/storage
// checkpoints exactly the dirty BATs and clears the bit once their heap
// files are durable. Code that mutates a column's backing slice
// directly must call MarkDirty itself.
//
// Mapped memory. BATs loaded through the buffer pool may be backed by
// memory-mapped heap files. The pool unmaps them only when it closes,
// so a loaded column's slices stay readable for as long as the pool is
// open, even after a checkpoint replaces or drops the BAT.
package bat

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the atom type stored in one column of a BAT.
type Kind uint8

// The atom kinds supported by the physical layer. KindVoid is a virtual
// column: a dense, materialisation-free sequence of OIDs starting at a base.
const (
	KindVoid  Kind = iota // dense OID sequence, not materialised
	KindOID               // object identifier
	KindInt               // 64-bit signed integer
	KindFloat             // 64-bit IEEE float
	KindStr               // string
	KindBool              // boolean
	KindBytes             // raw byte vector (one byte per BUN)
)

// String returns the MIL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindOID:
		return "oid"
	case KindInt:
		return "int"
	case KindFloat:
		return "flt"
	case KindStr:
		return "str"
	case KindBool:
		return "bit"
	case KindBytes:
		return "bytes"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a MIL type name.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "void":
		return KindVoid, nil
	case "oid":
		return KindOID, nil
	case "int":
		return KindInt, nil
	case "flt", "dbl", "float":
		return KindFloat, nil
	case "str":
		return KindStr, nil
	case "bit", "bool":
		return KindBool, nil
	case "bytes":
		return KindBytes, nil
	}
	return 0, fmt.Errorf("bat: unknown atom type %q", s)
}

// OID is an object identifier, the glue between decomposed columns.
type OID uint64

// Column is a typed vector forming one side of a BAT. A void column stores
// only a base OID and a length; all other kinds store a slice of values.
type Column struct {
	kind  Kind
	base  OID // for KindVoid
	n     int // for KindVoid
	oids  []OID
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	bytes []byte
}

// NewColumn returns an empty materialised column of the given kind.
// NewColumn(KindVoid) yields a zero-length dense sequence based at 0.
func NewColumn(kind Kind) *Column {
	return &Column{kind: kind}
}

// NewVoid returns a dense OID column [base, base+n).
func NewVoid(base OID, n int) *Column {
	return &Column{kind: KindVoid, base: base, n: n}
}

// Kind reports the column's atom kind.
func (c *Column) Kind() Kind { return c.kind }

// Base reports the base OID of a void column.
func (c *Column) Base() OID { return c.base }

// Len reports the number of values in the column.
func (c *Column) Len() int {
	switch c.kind {
	case KindVoid:
		return c.n
	case KindOID:
		return len(c.oids)
	case KindInt:
		return len(c.ints)
	case KindFloat:
		return len(c.flts)
	case KindStr:
		return len(c.strs)
	case KindBool:
		return len(c.bools)
	case KindBytes:
		return len(c.bytes)
	}
	return 0
}

// Get returns the i-th value boxed as an interface. Slow path; operators use
// the typed accessors.
func (c *Column) Get(i int) any {
	switch c.kind {
	case KindVoid:
		return c.base + OID(i)
	case KindOID:
		return c.oids[i]
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.flts[i]
	case KindStr:
		return c.strs[i]
	case KindBool:
		return c.bools[i]
	case KindBytes:
		return int64(c.bytes[i])
	}
	panic("bat: bad column kind")
}

// OIDAt returns the i-th value of an OID or void column.
func (c *Column) OIDAt(i int) OID {
	if c.kind == KindVoid {
		return c.base + OID(i)
	}
	return c.oids[i]
}

// IntAt returns the i-th value of an int column.
func (c *Column) IntAt(i int) int64 { return c.ints[i] }

// FloatAt returns the i-th value of a float column.
func (c *Column) FloatAt(i int) float64 { return c.flts[i] }

// StrAt returns the i-th value of a string column.
func (c *Column) StrAt(i int) string { return c.strs[i] }

// BoolAt returns the i-th value of a bool column.
func (c *Column) BoolAt(i int) bool { return c.bools[i] }

// Append adds a boxed value; it must match the column kind. Appending to a
// void column only checks density and extends the length.
func (c *Column) Append(v any) error {
	switch c.kind {
	case KindVoid:
		o, ok := toOID(v)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to void column", v)
		}
		if c.n == 0 && len(c.oids) == 0 {
			c.base = o
			c.n = 1
			return nil
		}
		if o != c.base+OID(c.n) {
			return fmt.Errorf("bat: void column density violated: got %d want %d", o, c.base+OID(c.n))
		}
		c.n++
		return nil
	case KindOID:
		o, ok := toOID(v)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to oid column", v)
		}
		c.oids = append(c.oids, o)
		return nil
	case KindInt:
		x, ok := toInt(v)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to int column", v)
		}
		c.ints = append(c.ints, x)
		return nil
	case KindFloat:
		x, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to flt column", v)
		}
		c.flts = append(c.flts, x)
		return nil
	case KindStr:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to str column", v)
		}
		c.strs = append(c.strs, s)
		return nil
	case KindBool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("bat: cannot append %T to bit column", v)
		}
		c.bools = append(c.bools, b)
		return nil
	case KindBytes:
		x, ok := toInt(v)
		if !ok || x < 0 || x > 255 {
			return fmt.Errorf("bat: cannot append %T to bytes column", v)
		}
		c.bytes = append(c.bytes, byte(x))
		return nil
	}
	return fmt.Errorf("bat: bad column kind %v", c.kind)
}

// canAppendAll reports why appendAll(src) would violate c's kind or
// density, before anything is appended.
func (c *Column) canAppendAll(src *Column) error {
	switch {
	case c.kind == KindVoid && src.kind != KindVoid:
		return fmt.Errorf("bat: cannot append %s values to void column", src.kind)
	case c.kind == KindVoid && c.n > 0 && src.base != c.base+OID(c.n):
		return fmt.Errorf("bat: void column density violated: got %d want %d", src.base, c.base+OID(c.n))
	case c.kind == KindOID && src.kind != KindOID && src.kind != KindVoid:
		return fmt.Errorf("bat: cannot append %s values to oid column", src.kind)
	case c.kind != KindVoid && c.kind != KindOID && src.kind != c.kind:
		return fmt.Errorf("bat: cannot append %s values to %s column", src.kind, c.kind)
	}
	return nil
}

// appendAll appends every value of src; canAppendAll(src) must hold.
func (c *Column) appendAll(src *Column) {
	switch c.kind {
	case KindVoid:
		if c.n == 0 {
			c.base = src.base
		}
		c.n += src.n
	case KindOID:
		if src.kind == KindOID {
			c.oids = append(c.oids, src.oids...)
			return
		}
		for i := 0; i < src.n; i++ {
			c.oids = append(c.oids, src.base+OID(i))
		}
	case KindInt:
		c.ints = append(c.ints, src.ints...)
	case KindFloat:
		c.flts = append(c.flts, src.flts...)
	case KindStr:
		c.strs = append(c.strs, src.strs...)
	case KindBool:
		c.bools = append(c.bools, src.bools...)
	case KindBytes:
		c.bytes = append(c.bytes, src.bytes...)
	}
}

// appendFrom copies value i of src (same kind family) onto c. A void source
// may feed an OID destination and vice versa when density holds.
func (c *Column) appendFrom(src *Column, i int) {
	switch c.kind {
	case KindOID:
		c.oids = append(c.oids, src.OIDAt(i))
	case KindInt:
		c.ints = append(c.ints, src.ints[i])
	case KindFloat:
		c.flts = append(c.flts, src.flts[i])
	case KindStr:
		c.strs = append(c.strs, src.strs[i])
	case KindBool:
		c.bools = append(c.bools, src.bools[i])
	case KindBytes:
		c.bytes = append(c.bytes, src.bytes[i])
	default:
		panic("bat: appendFrom into void column")
	}
}

// Materialize converts a void column into an explicit OID column; other
// kinds are returned unchanged.
func (c *Column) Materialize() *Column {
	if c.kind != KindVoid {
		return c
	}
	out := &Column{kind: KindOID, oids: make([]OID, c.n)}
	for i := 0; i < c.n; i++ {
		out.oids[i] = c.base + OID(i)
	}
	return out
}

// materialKind maps void to oid, leaving other kinds unchanged.
func materialKind(k Kind) Kind {
	if k == KindVoid {
		return KindOID
	}
	return k
}

// clone returns a deep copy of the column.
func (c *Column) clone() *Column {
	out := &Column{kind: c.kind, base: c.base, n: c.n}
	out.oids = append([]OID(nil), c.oids...)
	out.ints = append([]int64(nil), c.ints...)
	out.flts = append([]float64(nil), c.flts...)
	out.strs = append([]string(nil), c.strs...)
	out.bools = append([]bool(nil), c.bools...)
	out.bytes = append([]byte(nil), c.bytes...)
	return out
}

// slice returns a copy of rows [lo, hi) of the column. For void columns the
// result remains void (re-based).
func (c *Column) slice(lo, hi int) *Column {
	switch c.kind {
	case KindVoid:
		return &Column{kind: KindVoid, base: c.base + OID(lo), n: hi - lo}
	case KindOID:
		return &Column{kind: KindOID, oids: append([]OID(nil), c.oids[lo:hi]...)}
	case KindInt:
		return &Column{kind: KindInt, ints: append([]int64(nil), c.ints[lo:hi]...)}
	case KindFloat:
		return &Column{kind: KindFloat, flts: append([]float64(nil), c.flts[lo:hi]...)}
	case KindStr:
		return &Column{kind: KindStr, strs: append([]string(nil), c.strs[lo:hi]...)}
	case KindBool:
		return &Column{kind: KindBool, bools: append([]bool(nil), c.bools[lo:hi]...)}
	case KindBytes:
		return &Column{kind: KindBytes, bytes: append([]byte(nil), c.bytes[lo:hi]...)}
	}
	panic("bat: bad column kind")
}

// take returns a new column holding the rows of c at the given indexes.
func (c *Column) take(idx []int) *Column {
	out := NewColumn(materialKind(c.kind))
	switch out.kind {
	case KindOID:
		out.oids = make([]OID, len(idx))
		for j, i := range idx {
			out.oids[j] = c.OIDAt(i)
		}
	case KindInt:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			out.ints[j] = c.ints[i]
		}
	case KindFloat:
		out.flts = make([]float64, len(idx))
		for j, i := range idx {
			out.flts[j] = c.flts[i]
		}
	case KindStr:
		out.strs = make([]string, len(idx))
		for j, i := range idx {
			out.strs[j] = c.strs[i]
		}
	case KindBool:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			out.bools[j] = c.bools[i]
		}
	case KindBytes:
		out.bytes = make([]byte, len(idx))
		for j, i := range idx {
			out.bytes[j] = c.bytes[i]
		}
	}
	return out
}

// toOID coerces numeric boxed values to an OID.
func toOID(v any) (OID, bool) {
	switch x := v.(type) {
	case OID:
		return x, true
	case int:
		return OID(x), true
	case int64:
		return OID(x), true
	case uint64:
		return OID(x), true
	}
	return 0, false
}

// toInt coerces numeric boxed values to int64.
func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case OID:
		return int64(x), true
	}
	return 0, false
}

// toFloat coerces numeric boxed values to float64.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// FormatValue renders a boxed atom the way MIL prints it.
func FormatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case OID:
		return fmt.Sprintf("%d@0", uint64(x))
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatFloat(x, 'f', 1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("%v", v)
}
