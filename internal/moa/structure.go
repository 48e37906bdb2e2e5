package moa

import (
	"sync"

	"mirror/internal/bat"
)

// Structure is Moa's extensibility mechanism: "new structures can be added
// to the system, similar to the well-known principle of base type
// extensibility in object-relational database systems". The kernel ships
// TUPLE/SET/LIST; domain-specific structures such as CONTREP register
// themselves here (see internal/ir).
//
// A structure defines (1) how its type parameters are validated, (2) which
// physical BAT columns a field of this structure decomposes into, (3) how a
// logical value is inserted into those columns, and (4) the functions it
// contributes to the query algebra, each with a typing rule, a flattening
// (MIL-emitting) rule, and a tuple-at-a-time evaluation rule.
type Structure interface {
	Name() string
	CheckParams(params []Type) error
	// Columns lists the physical BATs backing a field with physical name
	// prefix (e.g. "lib_annotation").
	Columns(prefix string) []ColumnSpec
	// Prepare checks a column of field values (a structure-specific Go
	// representation; a []any holds one value per row) and returns it in
	// the form Insert takes, with its row count. It must not touch the
	// database: an insert checks every value before it appends anything.
	Prepare(col any) (prepared any, n int, err error)
	// Insert appends a prepared column whose rows are owned by first,
	// first+1, … into the column BATs. The Database is already locked.
	Insert(db *Database, prefix string, first bat.OID, prepared any) error
	// Finalize recomputes any derived columns after a batch of inserts
	// (e.g. CONTREP recomputes beliefs once collection statistics settle).
	Finalize(db *Database, prefix string) error
	// Materialize reconstructs the logical value owned by owner from the
	// column BATs; used when query results are turned back into Go values
	// and by the tuple-at-a-time interpreter.
	Materialize(db *Database, prefix string, owner bat.OID) (any, error)
	// Functions returns the query functions provided by this structure.
	Functions() map[string]*StructFunc
}

// ColumnSpec declares one physical BAT of a structure.
type ColumnSpec struct {
	Suffix   string // appended to the field prefix, e.g. "_term"
	HeadKind bat.Kind
	TailKind bat.Kind
}

// StructFunc is a function contributed by a structure (such as CONTREP's
// getBL). Check types a call; EmitMap flattens a call inside a map context;
// EvalTuple evaluates it per element in the interpreted baseline.
type StructFunc struct {
	// Check returns the result type; args[0] is always the structure value.
	Check func(args []Type) (Type, error)
	// EmitMap emits MIL for a call whose receiver (args[0]) compiled to
	// recv within the map context ctx; extra holds the compiled remaining
	// arguments. It returns the result representation over ctx's domain.
	EmitMap func(tr *Translator, ctx *Ctx, recv Rep, extra []Rep) (Rep, error)
	// EvalTuple evaluates the call on one element's materialised value.
	EvalTuple func(ip *Interp, recv any, extra []any) (any, error)
	// FuseAgg maps an enclosing aggregate name to a fused function name:
	// agg(fn(args)) rewrites to fused(args). This is how CONTREP tells the
	// optimizer that sum∘getBL collapses into the physical getbl operator.
	FuseAgg map[string]string
	// EmitTopK, when non-nil, lets the plan optimizer fuse a top-k request
	// over a full-collection map of this function — or of a left-to-right
	// sum of calls of it, optionally divided by a positive constant div
	// (1 otherwise) — into one pruned physical operator: it emits MIL
	// returning the k best elements already ranked (score descending, OID
	// ascending) and describes the result as a SetVal whose domain is in
	// ranking order. calls holds the compiled calls in summation order.
	// CONTREP registers this for getBLScore (max-score pruned retrieval).
	EmitTopK func(tr *Translator, ctx *Ctx, calls []TopKCall, div float64, k int) (*SetVal, error)
}

// TopKCall is one compiled call of a fused top-k retrieval: its receiver
// and its remaining arguments.
type TopKCall struct {
	Recv  Rep
	Extra []Rep
}

var (
	structMu  sync.RWMutex
	structReg = map[string]Structure{}
)

// RegisterStructure adds a structure to the global registry. Registering a
// name twice replaces the previous entry (tests rely on idempotence).
func RegisterStructure(s Structure) {
	structMu.Lock()
	defer structMu.Unlock()
	structReg[s.Name()] = s
}

// LookupStructure resolves a registered structure by name.
func LookupStructure(name string) (Structure, bool) {
	structMu.RLock()
	defer structMu.RUnlock()
	s, ok := structReg[name]
	return s, ok
}

// lookupStructFunc finds a function named fn among all registered
// structures whose receiver type matches recv.
func lookupStructFunc(fn string, recv Type) (*StructFunc, bool) {
	st, ok := recv.(*StructType)
	if !ok {
		return nil, false
	}
	f, ok := st.S.Functions()[fn]
	return f, ok
}
