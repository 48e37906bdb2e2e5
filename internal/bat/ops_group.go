package bat

import (
	"fmt"
	"math"
)

// Group computes equivalence classes over the tail values of b (MIL
// group/CTgroup). The result maps each head value to a dense group OID
// (0..G-1, numbered in order of first occurrence).
func Group(b *BAT) (*BAT, error) {
	out := &BAT{
		Head: b.Head.clone(),
		Tail: NewColumn(KindOID),
	}
	n := b.Len()
	next := OID(0)
	assign := func(g OID) { out.Tail.oids = append(out.Tail.oids, g) }
	switch b.Tail.Kind() {
	case KindVoid:
		for i := 0; i < n; i++ {
			assign(OID(i))
		}
		next = OID(n)
	case KindOID:
		m := make(map[OID]OID, n)
		for _, v := range b.Tail.oids {
			g, ok := m[v]
			if !ok {
				g = next
				m[v] = g
				next++
			}
			assign(g)
		}
	case KindInt:
		m := make(map[int64]OID, n)
		for _, v := range b.Tail.ints {
			g, ok := m[v]
			if !ok {
				g = next
				m[v] = g
				next++
			}
			assign(g)
		}
	case KindFloat:
		m := make(map[float64]OID, n)
		for _, v := range b.Tail.flts {
			g, ok := m[v]
			if !ok {
				g = next
				m[v] = g
				next++
			}
			assign(g)
		}
	case KindStr:
		m := make(map[string]OID, n)
		for _, v := range b.Tail.strs {
			g, ok := m[v]
			if !ok {
				g = next
				m[v] = g
				next++
			}
			assign(g)
		}
	case KindBool:
		m := make(map[bool]OID, 2)
		for _, v := range b.Tail.bools {
			g, ok := m[v]
			if !ok {
				g = next
				m[v] = g
				next++
			}
			assign(g)
		}
	default:
		return nil, fmt.Errorf("bat: group unsupported on %s tail", b.Tail.Kind())
	}
	out.HSorted, out.HKey = b.HSorted || b.HDense(), b.HKey || b.HDense()
	return out, nil
}

// GroupRefine refines an existing grouping g (head→groupOID) by the tail
// values of b; rows agree iff they agreed in g AND have equal b-tails. The
// two BATs must be positionally aligned.
func GroupRefine(g, b *BAT) (*BAT, error) {
	if g.Len() != b.Len() {
		return nil, fmt.Errorf("bat: group_refine length mismatch %d vs %d", g.Len(), b.Len())
	}
	type pair struct {
		g OID
		v any
	}
	m := make(map[pair]OID, g.Len())
	out := &BAT{Head: g.Head.clone(), Tail: NewColumn(KindOID)}
	next := OID(0)
	for i := 0; i < g.Len(); i++ {
		key := pair{g.Tail.OIDAt(i), b.Tail.Get(i)}
		gr, ok := m[key]
		if !ok {
			gr = next
			m[key] = gr
			next++
		}
		out.Tail.oids = append(out.Tail.oids, gr)
	}
	out.HSorted, out.HKey = g.HSorted, g.HKey
	return out, nil
}

// AggKind selects a grouped or scalar aggregate function.
type AggKind uint8

// Supported aggregates.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
	AggProd
)

// String returns the MIL pump name.
func (a AggKind) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggProd:
		return "prod"
	}
	return "agg?"
}

// AggKindFromString parses a pump name.
func AggKindFromString(s string) (AggKind, error) {
	switch s {
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "avg":
		return AggAvg, nil
	case "prod":
		return AggProd, nil
	}
	return 0, fmt.Errorf("bat: unknown aggregate %q", s)
}

// PumpAggregate implements MIL's pump: {agg}(vals, grp). vals is
// [oid, numeric] and grp is a positionally aligned [oid, groupOID]; the
// result maps each group OID to the aggregate of the values in the group.
// Groups are emitted in ascending group-OID order with a dense head when
// group OIDs happen to be dense from 0 (the usual case after Mark).
func PumpAggregate(agg AggKind, vals, grp *BAT) (*BAT, error) {
	if vals.Len() != grp.Len() {
		return nil, fmt.Errorf("bat: pump length mismatch: vals %d vs grp %d", vals.Len(), grp.Len())
	}
	n := grp.Len()
	if k := vals.Tail.Kind(); k == KindStr && agg != AggCount && n > 0 {
		return nil, fmt.Errorf("bat: pump %s on non-numeric tail %s", agg, k)
	}
	read := pumpReader(vals.Tail)

	// Determine the group domain size.
	maxG := OID(0)
	for i := 0; i < n; i++ {
		if g := grp.Tail.OIDAt(i); g >= maxG {
			maxG = g + 1
		}
	}
	acc := newPumpAcc(int(maxG))
	for i := 0; i < n; i++ {
		acc.add(grp.Tail.OIDAt(i), read(i))
	}
	return emitPump(agg, vals.Tail.Kind(), maxG, acc)
}

// pumpAcc is PumpAggregate's per-group aggregate state, one slot per group.
type pumpAcc struct {
	sums   []float64
	counts []int64
	mins   []float64
	maxs   []float64
	prods  []float64
}

func newPumpAcc(g int) *pumpAcc {
	a := &pumpAcc{
		sums:   make([]float64, g),
		counts: make([]int64, g),
		mins:   make([]float64, g),
		maxs:   make([]float64, g),
		prods:  make([]float64, g),
	}
	for i := range a.mins {
		a.mins[i] = math.Inf(1)
		a.maxs[i] = math.Inf(-1)
		a.prods[i] = 1
	}
	return a
}

func (a *pumpAcc) add(g OID, v float64) {
	a.sums[g] += v
	a.counts[g]++
	if v < a.mins[g] {
		a.mins[g] = v
	}
	if v > a.maxs[g] {
		a.maxs[g] = v
	}
	a.prods[g] *= v
}

// pumpReader returns the positional numeric reader PumpAggregate uses;
// unsupported kinds read as 0 (only reachable for AggCount, which ignores
// the value — other aggregates reject those kinds before reading).
func pumpReader(c *Column) func(int) float64 {
	if r, err := numericReader(c); err == nil {
		return r
	}
	return func(int) float64 { return 0 }
}

// emitPump renders accumulated per-group state as the [void, agg] result.
func emitPump(agg AggKind, valKind Kind, maxG OID, acc *pumpAcc) (*BAT, error) {
	out := NewDense(0, resultKind(agg, valKind))
	for g := OID(0); g < maxG; g++ {
		var v any
		switch agg {
		case AggSum:
			v = castNum(acc.sums[g], out.Tail.Kind())
		case AggCount:
			v = acc.counts[g]
		case AggMin:
			x := acc.mins[g]
			if acc.counts[g] == 0 {
				x = 0
			}
			v = castNum(x, out.Tail.Kind())
		case AggMax:
			x := acc.maxs[g]
			if acc.counts[g] == 0 {
				x = 0
			}
			v = castNum(x, out.Tail.Kind())
		case AggAvg:
			if acc.counts[g] == 0 {
				v = 0.0
			} else {
				v = acc.sums[g] / float64(acc.counts[g])
			}
		case AggProd:
			v = castNum(acc.prods[g], out.Tail.Kind())
		}
		out.MustAppend(g, v)
	}
	return out, nil
}

// ScalarAggregate reduces the tail of b to a single value: MIL's
// b.sum(), b.count(), etc.
func ScalarAggregate(agg AggKind, b *BAT) (any, error) {
	if agg == AggCount {
		return int64(b.Len()), nil
	}
	n := b.Len()
	sum, prod := 0.0, 1.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		var v float64
		switch b.Tail.Kind() {
		case KindFloat:
			v = b.Tail.flts[i]
		case KindInt:
			v = float64(b.Tail.ints[i])
		case KindOID, KindVoid:
			v = float64(b.Tail.OIDAt(i))
		case KindBool:
			if b.Tail.bools[i] {
				v = 1
			}
		default:
			return nil, fmt.Errorf("bat: %s on non-numeric tail %s", agg, b.Tail.Kind())
		}
		sum += v
		prod *= v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	switch agg {
	case AggSum:
		return castNum(sum, resultKind(agg, b.Tail.Kind())), nil
	case AggProd:
		return castNum(prod, resultKind(agg, b.Tail.Kind())), nil
	case AggMin:
		if n == 0 {
			return nil, fmt.Errorf("bat: min of empty BAT")
		}
		return castNum(mn, resultKind(agg, b.Tail.Kind())), nil
	case AggMax:
		if n == 0 {
			return nil, fmt.Errorf("bat: max of empty BAT")
		}
		return castNum(mx, resultKind(agg, b.Tail.Kind())), nil
	case AggAvg:
		if n == 0 {
			return 0.0, nil
		}
		return sum / float64(n), nil
	}
	return nil, fmt.Errorf("bat: unknown aggregate %v", agg)
}

// Histogram returns [value, count] over b's tail (MIL histogram).
func Histogram(b *BAT) (*BAT, error) {
	g, err := Group(b.Reverse().Mark(0).Reverse()) // [void, tail] grouped
	if err != nil {
		return nil, err
	}
	// g: [void, groupOID]; count per group, then join group→representative value.
	counts, err := PumpAggregate(AggCount, g, g)
	if err != nil {
		return nil, err
	}
	// representative tail value per group: first occurrence.
	rep := New(KindOID, materialKind(b.Tail.Kind()))
	seen := make(map[OID]bool)
	for i := 0; i < g.Len(); i++ {
		gr := g.Tail.OIDAt(i)
		if !seen[gr] {
			seen[gr] = true
			rep.Head.oids = append(rep.Head.oids, gr)
			rep.Tail.appendFrom(b.Tail, i)
		}
	}
	// [value, count] = join(reverse(rep), counts)
	return Join(rep.Reverse(), counts)
}

// Unique returns the BUNs of b with the first occurrence of each head value
// (MIL kunique).
func Unique(b *BAT) (*BAT, error) {
	if b.HKey || b.HDense() {
		return b, nil
	}
	seen := newValueSet(materialKind(b.Head.Kind()))
	out := selectWhere(b, func(i int) bool { return seen.add(b.Head.Get(i)) })
	out.HKey = true
	return out, nil
}

// resultKind picks the tail kind of an aggregate result.
func resultKind(agg AggKind, in Kind) Kind {
	switch agg {
	case AggCount:
		return KindInt
	case AggAvg:
		return KindFloat
	}
	if in == KindInt {
		return KindInt
	}
	return KindFloat
}

// castNum converts an accumulated float back to the requested kind.
func castNum(v float64, k Kind) any {
	if k == KindInt {
		return int64(v)
	}
	return v
}

// valueSet is a small typed set used by Unique.
type valueSet struct {
	kind  Kind
	oids  map[OID]bool
	ints  map[int64]bool
	flts  map[float64]bool
	strs  map[string]bool
	bools map[bool]bool
}

func newValueSet(k Kind) *valueSet {
	s := &valueSet{kind: k}
	switch k {
	case KindOID:
		s.oids = map[OID]bool{}
	case KindInt:
		s.ints = map[int64]bool{}
	case KindFloat:
		s.flts = map[float64]bool{}
	case KindStr:
		s.strs = map[string]bool{}
	case KindBool:
		s.bools = map[bool]bool{}
	}
	return s
}

// add inserts v and reports whether it was newly added.
func (s *valueSet) add(v any) bool {
	switch s.kind {
	case KindOID:
		o, _ := toOID(v)
		if s.oids[o] {
			return false
		}
		s.oids[o] = true
	case KindInt:
		x, _ := toInt(v)
		if s.ints[x] {
			return false
		}
		s.ints[x] = true
	case KindFloat:
		x, _ := toFloat(v)
		if s.flts[x] {
			return false
		}
		s.flts[x] = true
	case KindStr:
		x, _ := v.(string)
		if s.strs[x] {
			return false
		}
		s.strs[x] = true
	case KindBool:
		x, _ := v.(bool)
		if s.bools[x] {
			return false
		}
		s.bools[x] = true
	}
	return true
}

// PumpByHead aggregates tail values grouped by head value: MIL's {agg}(b)
// pump over head-induced groups. The result is [head, agg] with one BUN per
// distinct head value, in order of first occurrence.
func PumpByHead(agg AggKind, b *BAT) (*BAT, error) {
	// Group by head: reuse Group over the reversed BAT ([tail,head] grouped
	// on its tail = our head), positionally aligned with b.
	g, err := Group(b.Reverse())
	if err != nil {
		return nil, err
	}
	per, err := PumpAggregate(agg, b, g)
	if err != nil {
		return nil, err
	}
	// Map group OIDs back to representative head values.
	rep := New(KindOID, materialKind(b.Head.Kind()))
	seen := make(map[OID]bool, per.Len())
	for i := 0; i < g.Len(); i++ {
		gr := g.Tail.OIDAt(i)
		if !seen[gr] {
			seen[gr] = true
			rep.Head.oids = append(rep.Head.oids, gr)
			rep.Tail.appendFrom(b.Head, i)
		}
	}
	// rep is [groupOID, headValue]; per is [groupOID(dense), agg].
	// Emit [headValue, agg] by fetching each group's aggregate positionally.
	res := &BAT{Head: rep.Tail.clone(), Tail: NewColumn(materialKind(per.Tail.Kind()))}
	for i := 0; i < rep.Len(); i++ {
		gr := rep.Head.oids[i]
		res.Tail.appendFrom(per.Tail, int(gr))
	}
	res.HKey = true
	return res, nil
}
