package moa

// Rep is the flattened representation of a Moa value during translation:
// which MIL variables hold its BATs, relative to the current map context's
// element domain. Structures (e.g. CONTREP in internal/ir) receive and
// return Reps from their EmitMap hooks, so these types are exported.
type Rep interface{ isRep() }

// AtomRep is an atomic value per context element: a MIL variable holding a
// BAT [ctxOID, value], positionally aligned with the context domain.
type AtomRep struct {
	Var string
	T   Type
}

func (*AtomRep) isRep() {}

// ConstRep is a compile-time scalar constant (context-independent).
type ConstRep struct {
	V any
	T Type
}

func (*ConstRep) isRep() {}

// VarRep is a scalar computed at run time (a MIL variable holding a
// non-BAT value), e.g. a top-level aggregate.
type VarRep struct {
	Var string
	T   Type
}

func (*VarRep) isRep() {}

// TupleRep is a tuple value per context element: one Rep per field.
type TupleRep struct {
	Names  []string
	Fields []Rep
	T      *TupleType
}

func (*TupleRep) isRep() {}

// SetRep is a nested set per context element: AssocVar holds
// [ctxOID, childOID]; for sets of atoms ValsVar holds [childOID, value]
// (aligned with AssocVar tails). PosVar is set for LIST fields.
type SetRep struct {
	AssocVar string
	ValsVar  string // "" when elements are not atomic
	PosVar   string // "" unless LIST
	ElemT    Type
}

func (*SetRep) isRep() {}

// ElemRep is the element view of a stored collection inside a map context:
// field accesses are compiled lazily against the physical columns under
// Prefix, restricted to the context domain.
type ElemRep struct {
	Prefix string
	Ctx    *Ctx
	T      Type // element type: *TupleType or *AtomType
}

func (*ElemRep) isRep() {}

// StructRep is a structure-typed field (e.g. CONTREP) within a context; the
// structure's EmitMap hooks interpret it. Prefix names its physical
// columns, Ctx the owning element domain.
type StructRep struct {
	Prefix string
	Ctx    *Ctx
	T      *StructType
}

func (*StructRep) isRep() {}

// ParamSetRep is a constant set bound as a query parameter: ValsVar holds
// [void, value] (one BUN per element), independent of any context. A
// weighted set also binds WeightsVar, [void, flt] aligned with ValsVar;
// it is empty for a plain set.
type ParamSetRep struct {
	ValsVar    string
	WeightsVar string
	ElemT      Type
}

func (*ParamSetRep) isRep() {}

// StatsRep is the opaque `stats` handle passed to getBL; the receiving
// structure uses its own columns, as the statistics belong to the indexed
// collection.
type StatsRep struct{}

func (*StatsRep) isRep() {}

// Ctx is a map/select context: the domain of THIS.
type Ctx struct {
	// DomainVar holds [elemOID, elemOID] for the elements in scope.
	DomainVar string
	// Full is true when DomainVar covers the entire stored collection, which
	// lets field accesses skip the restriction join.
	Full bool
	// ElemT is the element type of the context.
	ElemT Type
	// This is the representation of THIS.
	This Rep
}
