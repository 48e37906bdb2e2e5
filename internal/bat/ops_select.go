package bat

import (
	"fmt"
)

// Select returns the BUNs of b whose tail equals v, as in MIL
// b.select(v). The head kind is materialised.
func Select(b *BAT, v any) (*BAT, error) {
	pred, err := equalPred(b.Tail, v)
	if err != nil {
		return nil, err
	}
	return selectWhere(b, pred), nil
}

// SelectRange returns the BUNs whose tail t satisfies lo <= t <= hi
// (MIL b.select(lo, hi)). Either bound may be nil for open-ended ranges.
func SelectRange(b *BAT, lo, hi any) (*BAT, error) {
	pred, err := rangePred(b.Tail, lo, hi)
	if err != nil {
		return nil, err
	}
	return selectWhere(b, pred), nil
}

// USelect is MIL's uselect: like Select but the result tail is nil-ish —
// represented here as [head, void] since only head membership matters.
func USelect(b *BAT, v any) (*BAT, error) {
	s, err := Select(b, v)
	if err != nil {
		return nil, err
	}
	return s.Mark(0), nil
}

// USelectRange is the range form of USelect.
func USelectRange(b *BAT, lo, hi any) (*BAT, error) {
	s, err := SelectRange(b, lo, hi)
	if err != nil {
		return nil, err
	}
	return s.Mark(0), nil
}

// SelectNot returns BUNs whose tail differs from v.
func SelectNot(b *BAT, v any) (*BAT, error) {
	pred, err := equalPred(b.Tail, v)
	if err != nil {
		return nil, err
	}
	return selectWhere(b, func(i int) bool { return !pred(i) }), nil
}

// LikeSelect returns BUNs whose string tail contains the substring pat.
func LikeSelect(b *BAT, pat string) (*BAT, error) {
	if b.Tail.Kind() != KindStr {
		return nil, fmt.Errorf("bat: like_select needs str tail, got %s", b.Tail.Kind())
	}
	return selectWhere(b, func(i int) bool { return containsFold(b.Tail.strs[i], pat) }), nil
}

// selectWhere gathers BUNs whose position satisfies pred, preserving order.
func selectWhere(b *BAT, pred func(int) bool) *BAT {
	idx := make([]int, 0, 16)
	n := b.Len()
	for i := 0; i < n; i++ {
		if pred(i) {
			idx = append(idx, i)
		}
	}
	out := b.take(idx)
	out.HSorted = b.HSorted || b.HDense()
	out.TSorted = b.TSorted || b.Tail.Kind() == KindVoid
	out.HKey = b.HKey || b.HDense()
	out.TKey = b.TKey || b.Tail.Kind() == KindVoid
	return out
}

// equalPred builds a positional equality predicate over column c for the
// boxed value v, coercing v to the column kind.
func equalPred(c *Column, v any) (func(int) bool, error) {
	switch c.Kind() {
	case KindVoid, KindOID:
		o, ok := toOID(v)
		if !ok {
			return nil, fmt.Errorf("bat: select value %T incompatible with %s column", v, c.Kind())
		}
		return func(i int) bool { return c.OIDAt(i) == o }, nil
	case KindInt:
		x, ok := toInt(v)
		if !ok {
			return nil, fmt.Errorf("bat: select value %T incompatible with int column", v)
		}
		return func(i int) bool { return c.ints[i] == x }, nil
	case KindFloat:
		x, ok := toFloat(v)
		if !ok {
			return nil, fmt.Errorf("bat: select value %T incompatible with flt column", v)
		}
		return func(i int) bool { return c.flts[i] == x }, nil
	case KindStr:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("bat: select value %T incompatible with str column", v)
		}
		return func(i int) bool { return c.strs[i] == s }, nil
	case KindBool:
		x, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("bat: select value %T incompatible with bit column", v)
		}
		return func(i int) bool { return c.bools[i] == x }, nil
	}
	return nil, fmt.Errorf("bat: bad column kind %v", c.Kind())
}

// rangePred builds lo <= value <= hi over column c; nil bounds are open.
func rangePred(c *Column, lo, hi any) (func(int) bool, error) {
	switch c.Kind() {
	case KindVoid, KindOID:
		var l, h OID
		hasL, hasH := lo != nil, hi != nil
		if hasL {
			v, ok := toOID(lo)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with %s", lo, c.Kind())
			}
			l = v
		}
		if hasH {
			v, ok := toOID(hi)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with %s", hi, c.Kind())
			}
			h = v
		}
		return func(i int) bool {
			v := c.OIDAt(i)
			return (!hasL || v >= l) && (!hasH || v <= h)
		}, nil
	case KindInt:
		var l, h int64
		hasL, hasH := lo != nil, hi != nil
		if hasL {
			v, ok := toInt(lo)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with int", lo)
			}
			l = v
		}
		if hasH {
			v, ok := toInt(hi)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with int", hi)
			}
			h = v
		}
		return func(i int) bool {
			v := c.ints[i]
			return (!hasL || v >= l) && (!hasH || v <= h)
		}, nil
	case KindFloat:
		var l, h float64
		hasL, hasH := lo != nil, hi != nil
		if hasL {
			v, ok := toFloat(lo)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with flt", lo)
			}
			l = v
		}
		if hasH {
			v, ok := toFloat(hi)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with flt", hi)
			}
			h = v
		}
		return func(i int) bool {
			v := c.flts[i]
			return (!hasL || v >= l) && (!hasH || v <= h)
		}, nil
	case KindStr:
		var l, h string
		hasL, hasH := lo != nil, hi != nil
		if hasL {
			v, ok := lo.(string)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with str", lo)
			}
			l = v
		}
		if hasH {
			v, ok := hi.(string)
			if !ok {
				return nil, fmt.Errorf("bat: range bound %T incompatible with str", hi)
			}
			h = v
		}
		return func(i int) bool {
			v := c.strs[i]
			return (!hasL || v >= l) && (!hasH || v <= h)
		}, nil
	}
	return nil, fmt.Errorf("bat: range select unsupported on %s column", c.Kind())
}

// containsFold reports whether s contains pat, ASCII case-insensitively.
func containsFold(s, pat string) bool {
	if len(pat) == 0 {
		return true
	}
	n, m := len(s), len(pat)
	for i := 0; i+m <= n; i++ {
		ok := true
		for j := 0; j < m; j++ {
			a, b := s[i+j], pat[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
