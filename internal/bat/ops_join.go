package bat

import "fmt"

// Join is the Monet join: it matches l's tail values against r's head
// values and returns [l.head, r.tail] for every matching pair, preserving
// l's BUN order. r is hashed on its head (or probed arithmetically when its
// head is void/dense).
func Join(l, r *BAT) (*BAT, error) {
	out := &BAT{
		Head: NewColumn(materialKind(l.Head.Kind())),
		Tail: NewColumn(materialKind(r.Tail.Kind())),
	}
	n := l.Len()

	// Fast path: r has a dense head, so a tail OID of l maps to a position
	// in r by subtraction. This is the common case after flattening: all
	// attribute BATs of a Moa set share a dense head.
	if r.HDense() && (l.Tail.Kind() == KindOID || l.Tail.Kind() == KindVoid) {
		base, rn := r.Head.Base(), r.Len()
		for i := 0; i < n; i++ {
			o := l.Tail.OIDAt(i)
			j := int(int64(o) - int64(base))
			if j < 0 || j >= rn {
				continue
			}
			out.Head.appendFrom(l.Head, i)
			out.Tail.appendFrom(r.Tail, j)
		}
		out.HSorted = l.HSorted || l.HDense()
		return out, nil
	}

	if l.Tail.Kind() == KindVoid && r.Head.Kind() != KindVoid {
		// Swap roles: probe r's (non-dense) head with l's dense tail.
		rh := r.ensureHash()
		for i := 0; i < n; i++ {
			for _, j := range rh.positions(r.Head, l.Tail.OIDAt(i)) {
				out.Head.appendFrom(l.Head, i)
				out.Tail.appendFrom(r.Tail, j)
			}
		}
		return out, nil
	}

	if materialKind(l.Tail.Kind()) != materialKind(r.Head.Kind()) {
		return nil, fmt.Errorf("bat: join type mismatch: tail %s vs head %s", l.Tail.Kind(), r.Head.Kind())
	}
	rh := r.ensureHash()
	for i := 0; i < n; i++ {
		for _, j := range rh.positions(r.Head, l.Tail.Get(i)) {
			out.Head.appendFrom(l.Head, i)
			out.Tail.appendFrom(r.Tail, j)
		}
	}
	return out, nil
}

// LeftJoin is Join with the guarantee that l's order is preserved; our Join
// already preserves it, so this is an alias kept for MIL compatibility.
func LeftJoin(l, r *BAT) (*BAT, error) { return Join(l, r) }

// SemiJoin returns the BUNs of l whose head value occurs as a head value of
// r (MIL semijoin). Head kinds must be comparable.
func SemiJoin(l, r *BAT) (*BAT, error) {
	member, err := headMembership(r)
	if err != nil {
		return nil, err
	}
	return selectWhere(l, func(i int) bool { return member(l.Head.Get(i)) }), nil
}

// Diff returns the BUNs of l whose head does NOT occur in r's head
// (MIL kdiff).
func Diff(l, r *BAT) (*BAT, error) {
	member, err := headMembership(r)
	if err != nil {
		return nil, err
	}
	return selectWhere(l, func(i int) bool { return !member(l.Head.Get(i)) }), nil
}

// Union returns l plus the BUNs of r whose head does not occur in l
// (MIL kunion: head-keyed union).
func Union(l, r *BAT) (*BAT, error) {
	member, err := headMembership(l)
	if err != nil {
		return nil, err
	}
	out := &BAT{
		Head: NewColumn(materialKind(l.Head.Kind())),
		Tail: NewColumn(materialKind(l.Tail.Kind())),
	}
	for i := 0; i < l.Len(); i++ {
		out.Head.appendFrom(l.Head, i)
		out.Tail.appendFrom(l.Tail, i)
	}
	if materialKind(r.Head.Kind()) != materialKind(l.Head.Kind()) {
		return nil, fmt.Errorf("bat: union head kind mismatch: %s vs %s", l.Head.Kind(), r.Head.Kind())
	}
	for i := 0; i < r.Len(); i++ {
		if !member(r.Head.Get(i)) {
			out.Head.appendFrom(r.Head, i)
			out.Tail.appendFrom(r.Tail, i)
		}
	}
	return out, nil
}

// Intersect returns the BUNs of l whose head occurs in r's head
// (MIL kintersect); identical to SemiJoin but kept as its own operator for
// MIL parity.
func Intersect(l, r *BAT) (*BAT, error) { return SemiJoin(l, r) }

// CrossProduct returns [l.head, r.tail] for every pair of BUNs; used only by
// tiny relations (e.g. binding global statistics to every document).
func CrossProduct(l, r *BAT) (*BAT, error) {
	out := &BAT{
		Head: NewColumn(materialKind(l.Head.Kind())),
		Tail: NewColumn(materialKind(r.Tail.Kind())),
	}
	for i := 0; i < l.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			out.Head.appendFrom(l.Head, i)
			out.Tail.appendFrom(r.Tail, j)
		}
	}
	return out, nil
}

// headMembership returns a membership test over r's head values.
func headMembership(r *BAT) (func(any) bool, error) {
	if r.HDense() {
		base, n := r.Head.Base(), r.Len()
		return func(v any) bool {
			o, ok := toOID(v)
			if !ok {
				return false
			}
			i := int(int64(o) - int64(base))
			return i >= 0 && i < n
		}, nil
	}
	rh := r.ensureHash()
	return func(v any) bool {
		return len(rh.positions(r.Head, v)) > 0
	}, nil
}

// Fill completes b over a domain: the result contains every BUN of b whose
// head occurs in domain's head, plus (h, fillValue) for every domain head
// missing from b. This implements total-function semantics for aggregates
// over possibly-empty nested sets (sum over an empty set is 0, a document
// matching no query term scores qlen·defaultBelief, ...).
//
// Order: domain order — a head's BUNs of b (in b's order) at its first
// domain occurrence, a missing head's fill BUN at each of its. Two fills
// over one domain therefore come out positionally aligned, which is what
// the flattener's BAT⊕BAT multiplex of two filled scores relies on.
func Fill(b, domain *BAT, fillValue any) (*BAT, error) {
	if out, ok, err := fillFastFloat(b, domain, fillValue); ok {
		return out, err
	}
	var positions func(v any) []int
	if b.HDense() {
		base, n := b.Head.Base(), b.Len()
		one := make([]int, 1)
		positions = func(v any) []int {
			o, ok := toOID(v)
			if i := int(int64(o) - int64(base)); ok && i >= 0 && i < n {
				one[0] = i
				return one
			}
			return nil
		}
	} else {
		bh := b.ensureHash()
		positions = func(v any) []int { return bh.positions(b.Head, v) }
	}
	out := &BAT{
		Head: NewColumn(materialKind(b.Head.Kind())),
		Tail: NewColumn(materialKind(b.Tail.Kind())),
	}
	taken := make([]bool, b.Len())
	for i := 0; i < domain.Len(); i++ {
		h := domain.Head.Get(i)
		ps := positions(h)
		if len(ps) == 0 {
			if err := out.Append(h, fillValue); err != nil {
				return nil, fmt.Errorf("bat: fill: %w", err)
			}
			continue
		}
		for _, p := range ps {
			if !taken[p] {
				taken[p] = true
				out.Head.appendFrom(b.Head, p)
				out.Tail.appendFrom(b.Tail, p)
			}
		}
	}
	return out, nil
}

// fillFastFloat is the columnar fast path of Fill for the dominant case in
// query plans — OID heads, float tails, compact OID space, heads of b
// unique — using a flat position array instead of hashes. ok=false means
// "use the general path".
func fillFastFloat(b, domain *BAT, fillValue any) (*BAT, bool, error) {
	if b.Tail.Kind() != KindFloat {
		return nil, false, nil
	}
	hk := b.Head.Kind()
	dk := domain.Head.Kind()
	if (hk != KindOID && hk != KindVoid) || (dk != KindOID && dk != KindVoid) {
		return nil, false, nil
	}
	fv, okf := toFloat(fillValue)
	if !okf {
		return nil, false, nil
	}
	maxOID := OID(0)
	for i := 0; i < b.Len(); i++ {
		if h := b.Head.OIDAt(i); h > maxOID {
			maxOID = h
		}
	}
	for i := 0; i < domain.Len(); i++ {
		if h := domain.Head.OIDAt(i); h > maxOID {
			maxOID = h
		}
	}
	if uint64(maxOID) >= uint64(4*(b.Len()+domain.Len())+1024) {
		return nil, false, nil // sparse OID space: general path
	}
	// pos[h] = 1 + b's position of head h; 0 = absent, -1 = already emitted
	pos := make([]int, maxOID+1)
	for i := 0; i < b.Len(); i++ {
		h := b.Head.OIDAt(i)
		if pos[h] != 0 {
			return nil, false, nil // duplicate head: the general path keeps all its BUNs
		}
		pos[h] = i + 1
	}
	out := New(KindOID, KindFloat)
	out.Head.oids = make([]OID, 0, domain.Len())
	out.Tail.flts = make([]float64, 0, domain.Len())
	for i := 0; i < domain.Len(); i++ {
		h := domain.Head.OIDAt(i)
		switch p := pos[h]; {
		case p > 0:
			pos[h] = -1
			out.Head.oids = append(out.Head.oids, h)
			out.Tail.flts = append(out.Tail.flts, b.Tail.flts[p-1])
		case p == 0:
			out.Head.oids = append(out.Head.oids, h)
			out.Tail.flts = append(out.Tail.flts, fv)
		}
	}
	return out, true, nil
}
