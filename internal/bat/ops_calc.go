package bat

import (
	"fmt"
	"math"
)

// The bulk arithmetic operators pre-size their output columns and fill them
// by index — one allocation, no per-row append.

// Multiplex lifts a binary scalar operator over two positionally aligned
// BATs: MIL's [op](a, b). The result is [a.head, a.tail op b.tail]. Both
// operands must have the same length; heads are assumed aligned (the
// flattener guarantees this, and the MIL interpreter checks lengths).
func Multiplex(op string, a, b *BAT) (*BAT, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("bat: multiplex [%s] length mismatch %d vs %d", op, a.Len(), b.Len())
	}
	n := a.Len()
	av, err := numericReader(a.Tail)
	if err == nil {
		bv, err2 := numericReader(b.Tail)
		if err2 == nil {
			f, boolResult, err3 := numericOp(op)
			if err3 != nil {
				// fall through to string ops below
			} else {
				out := &BAT{Head: a.Head.clone()}
				out.HSorted, out.HKey = a.HSorted || a.HDense(), a.HKey || a.HDense()
				if boolResult {
					out.Tail = &Column{kind: KindBool, bools: make([]bool, n)}
					for i := 0; i < n; i++ {
						out.Tail.bools[i] = f(av(i), bv(i)) != 0
					}
				} else {
					out.Tail = &Column{kind: KindFloat, flts: make([]float64, n)}
					for i := 0; i < n; i++ {
						out.Tail.flts[i] = f(av(i), bv(i))
					}
				}
				return out, nil
			}
		}
	}
	// String concatenation and comparisons.
	if a.Tail.Kind() == KindStr && b.Tail.Kind() == KindStr {
		out := &BAT{Head: a.Head.clone()}
		switch op {
		case "+":
			out.Tail = &Column{kind: KindStr, strs: make([]string, n)}
			for i := 0; i < n; i++ {
				out.Tail.strs[i] = a.Tail.strs[i] + b.Tail.strs[i]
			}
		case "==", "!=", "<", "<=", ">", ">=":
			out.Tail = &Column{kind: KindBool, bools: make([]bool, n)}
			for i := 0; i < n; i++ {
				out.Tail.bools[i] = strCompare(op, a.Tail.strs[i], b.Tail.strs[i])
			}
		default:
			return nil, fmt.Errorf("bat: multiplex [%s] unsupported on str", op)
		}
		return out, nil
	}
	if a.Tail.Kind() == KindBool && b.Tail.Kind() == KindBool {
		var f func(x, y bool) bool
		switch op {
		case "and":
			f = func(x, y bool) bool { return x && y }
		case "or":
			f = func(x, y bool) bool { return x || y }
		case "==":
			f = func(x, y bool) bool { return x == y }
		case "!=":
			f = func(x, y bool) bool { return x != y }
		default:
			return nil, fmt.Errorf("bat: multiplex [%s] unsupported on bit", op)
		}
		out := &BAT{Head: a.Head.clone(), Tail: &Column{kind: KindBool, bools: make([]bool, n)}}
		for i := 0; i < n; i++ {
			out.Tail.bools[i] = f(a.Tail.bools[i], b.Tail.bools[i])
		}
		return out, nil
	}
	return nil, fmt.Errorf("bat: multiplex [%s] on %s/%s tails", op, a.Tail.Kind(), b.Tail.Kind())
}

// MultiplexConst lifts op over a BAT and a scalar constant: [op](a, c) or,
// when rightConst is false, [op](c, a).
func MultiplexConst(op string, a *BAT, c any, rightConst bool) (*BAT, error) {
	n := a.Len()
	av, err := numericReader(a.Tail)
	cf, okc := toFloat(c)
	if err == nil && okc {
		f, boolResult, err3 := numericOp(op)
		if err3 != nil {
			return nil, err3
		}
		out := &BAT{Head: a.Head.clone()}
		out.HSorted, out.HKey = a.HSorted || a.HDense(), a.HKey || a.HDense()
		apply := func(i int) float64 {
			if rightConst {
				return f(av(i), cf)
			}
			return f(cf, av(i))
		}
		if boolResult {
			out.Tail = &Column{kind: KindBool, bools: make([]bool, n)}
			for i := 0; i < n; i++ {
				out.Tail.bools[i] = apply(i) != 0
			}
		} else {
			out.Tail = &Column{kind: KindFloat, flts: make([]float64, n)}
			for i := 0; i < n; i++ {
				out.Tail.flts[i] = apply(i)
			}
		}
		return out, nil
	}
	if s, ok := c.(string); ok && a.Tail.Kind() == KindStr {
		out := &BAT{Head: a.Head.clone()}
		if op == "+" {
			out.Tail = &Column{kind: KindStr, strs: make([]string, n)}
			for i := 0; i < n; i++ {
				if rightConst {
					out.Tail.strs[i] = a.Tail.strs[i] + s
				} else {
					out.Tail.strs[i] = s + a.Tail.strs[i]
				}
			}
			return out, nil
		}
		out.Tail = &Column{kind: KindBool, bools: make([]bool, n)}
		for i := 0; i < n; i++ {
			l, r := a.Tail.strs[i], s
			if !rightConst {
				l, r = r, l
			}
			out.Tail.bools[i] = strCompare(op, l, r)
		}
		return out, nil
	}
	return nil, fmt.Errorf("bat: multiplex [%s] const %T on %s tail", op, c, a.Tail.Kind())
}

// MultiplexUnary lifts a unary function over the tail of a: [f](a).
func MultiplexUnary(fn string, a *BAT) (*BAT, error) {
	n := a.Len()
	if fn == "not" {
		if a.Tail.Kind() != KindBool {
			return nil, fmt.Errorf("bat: [not] needs bit tail, got %s", a.Tail.Kind())
		}
		out := &BAT{Head: a.Head.clone(), Tail: &Column{kind: KindBool, bools: make([]bool, n)}}
		for i := 0; i < n; i++ {
			out.Tail.bools[i] = !a.Tail.bools[i]
		}
		return out, nil
	}
	av, err := numericReader(a.Tail)
	if err != nil {
		return nil, fmt.Errorf("bat: [%s]: %v", fn, err)
	}
	var f func(float64) float64
	switch fn {
	case "log":
		f = math.Log
	case "log2":
		f = math.Log2
	case "log10":
		f = math.Log10
	case "exp":
		f = math.Exp
	case "sqrt":
		f = math.Sqrt
	case "abs":
		f = math.Abs
	case "neg":
		f = func(x float64) float64 { return -x }
	case "flt", "dbl":
		f = func(x float64) float64 { return x }
	default:
		return nil, fmt.Errorf("bat: unknown unary multiplex [%s]", fn)
	}
	out := &BAT{Head: a.Head.clone(), Tail: &Column{kind: KindFloat, flts: make([]float64, n)}}
	out.HSorted, out.HKey = a.HSorted || a.HDense(), a.HKey || a.HDense()
	for i := 0; i < n; i++ {
		out.Tail.flts[i] = f(av(i))
	}
	return out, nil
}

// numericReader returns a positional float64 reader over a column, or an
// error if the column is not numeric.
func numericReader(c *Column) (func(int) float64, error) {
	switch c.Kind() {
	case KindFloat:
		return func(i int) float64 { return c.flts[i] }, nil
	case KindInt:
		return func(i int) float64 { return float64(c.ints[i]) }, nil
	case KindOID, KindVoid:
		return func(i int) float64 { return float64(c.OIDAt(i)) }, nil
	case KindBool:
		return func(i int) float64 {
			if c.bools[i] {
				return 1
			}
			return 0
		}, nil
	}
	return nil, fmt.Errorf("column kind %s is not numeric", c.Kind())
}

// numericOp resolves an operator name to a float function; boolResult
// reports whether the output is a comparison (bit column).
func numericOp(op string) (f func(a, b float64) float64, boolResult bool, err error) {
	switch op {
	case "+":
		return func(a, b float64) float64 { return a + b }, false, nil
	case "-":
		return func(a, b float64) float64 { return a - b }, false, nil
	case "*":
		return func(a, b float64) float64 { return a * b }, false, nil
	case "/":
		return func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}, false, nil
	case "min":
		return math.Min, false, nil
	case "max":
		return math.Max, false, nil
	case "pow":
		return math.Pow, false, nil
	case "==":
		return func(a, b float64) float64 { return b2f(a == b) }, true, nil
	case "!=":
		return func(a, b float64) float64 { return b2f(a != b) }, true, nil
	case "<":
		return func(a, b float64) float64 { return b2f(a < b) }, true, nil
	case "<=":
		return func(a, b float64) float64 { return b2f(a <= b) }, true, nil
	case ">":
		return func(a, b float64) float64 { return b2f(a > b) }, true, nil
	case ">=":
		return func(a, b float64) float64 { return b2f(a >= b) }, true, nil
	}
	return nil, false, fmt.Errorf("bat: unknown multiplex operator [%s]", op)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func strCompare(op, a, b string) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}
