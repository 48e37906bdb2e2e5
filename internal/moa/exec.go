package moa

import (
	"fmt"
	"sort"

	"mirror/internal/bat"
	"mirror/internal/mil"
)

// Engine compiles and executes Moa queries against a Database using the
// flattened (set-at-a-time) execution path. Every entry point goes through
// prepare + bind (prepare.go): a query is parsed, checked, planned and
// lowered at most once per (database version, source, parameter types,
// options), and the plan cache lives and dies with the Engine. The zero
// value with DB set is ready to use; an Engine must not be copied after
// first use.
type Engine struct {
	DB   *Database
	Opts Options

	plans planCache
}

// NewEngine returns an engine with all optimisations enabled.
func NewEngine(db *Database) *Engine {
	return &Engine{DB: db, Opts: DefaultOptions}
}

// Result is a materialised query result. Set-typed queries fill Rows (one
// per element, carrying the element OID); scalar queries fill Scalar.
// Ranked reports that Rows are already in ranking order (score descending,
// OID ascending) cut at Options.TopK, because the optimiser served the
// query with the pruned top-k operator; callers must not re-sort.
type Result struct {
	T      Type
	Scalar any
	Rows   []Row
	Ranked bool
}

// Row is one element of a set result. Value is a Go rendering of the Moa
// value: atoms are scalars, tuples map[string]any, sets []any, structure
// values whatever the structure's Materialize returns.
type Row struct {
	OID   bat.OID
	Value any
}

// Find returns the row with the given OID.
func (r *Result) Find(oid bat.OID) (Row, bool) {
	for _, row := range r.Rows {
		if row.OID == oid {
			return row, true
		}
	}
	return Row{}, false
}

// SortByScoreDesc orders rows by float value, descending, ties by OID
// ascending (the standard ranked-retrieval presentation). Non-float and
// missing values sort last.
func (r *Result) SortByScoreDesc() {
	score := func(v any) (float64, bool) {
		f, ok := v.(float64)
		return f, ok
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		fi, oki := score(r.Rows[i].Value)
		fj, okj := score(r.Rows[j].Value)
		switch {
		case oki && okj && fi != fj:
			return fi > fj
		case oki != okj:
			return oki
		}
		return r.Rows[i].OID < r.Rows[j].OID
	})
}

// Compiled is a prepared query bound to one call's parameter values: Run
// executes the plan's MIL program against the current database state, any
// number of times.
type Compiled struct {
	T     Type
	p     *Prepared
	bound []binding
	theta *bat.TopKThreshold
}

// Compile prepares the query (from the plan cache when it can) and binds
// the parameter values.
func (e *Engine) Compile(src string, params map[string]Param) (*Compiled, error) {
	return e.compile(src, params, e.Opts, nil)
}

func (e *Engine) compile(src string, params map[string]Param, opts Options, theta *bat.TopKThreshold) (*Compiled, error) {
	p, err := e.prepare(src, params, opts)
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(p.tl.Slots))
	for i, sl := range p.tl.Slots {
		vals[i] = params[sl.Name].V
	}
	return p.Bind(vals, theta)
}

// Explain returns the query's optimised logical plan as an indented
// operator tree (the shell's \plan command). Scalar queries report their
// aggregate shape.
func (e *Engine) Explain(src string, params map[string]Param) (string, error) {
	p, err := e.prepare(src, params, e.Opts)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Query compiles and runs in one step.
func (e *Engine) Query(src string, params map[string]Param) (*Result, error) {
	return e.QueryTopK(src, params, 0, nil)
}

// QueryTopK is Query with a per-call ranked cut: k > 0 overrides
// Options.TopK for this call and binds theta (which may be nil) as the
// pruning threshold the plan's pruned top-k scan shares — a θ-memo seed or
// a cross-shard bound. With k <= 0 it is Query.
func (e *Engine) QueryTopK(src string, params map[string]Param, k int, theta *bat.TopKThreshold) (*Result, error) {
	opts := e.Opts
	if k > 0 {
		opts.TopK = k
	} else {
		theta = nil
	}
	c, err := e.compile(src, params, opts, theta)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// MIL returns the flattened program text (the paper's intermediate
// language; cmd/moash shows it with \mil).
func (c *Compiled) MIL() string { return c.p.tl.Prog.String() }

// Run executes the compiled program against the current database state and
// materialises the result. The database's BATs are the environment's
// shared read-only base scope; only the bound parameters and the program's
// intermediates are bound per run.
func (c *Compiled) Run() (*Result, error) {
	tl, db := c.p.tl, c.p.db
	env := mil.NewEnvOver(db.Base())
	env.TopKTheta = c.theta
	for _, b := range c.bound {
		env.Bind(b.name, b.v)
	}
	if _, err := mil.Run(tl.Prog, env); err != nil {
		return nil, fmt.Errorf("moa: executing %q: %w", c.p.src, err)
	}
	res := &Result{T: tl.T, Ranked: tl.Ranked}
	if out := tl.OutSet; out != nil {
		m := &materializer{db: db, env: env, assocIdx: map[string]map[bat.OID][]bat.OID{}}
		dom, err := env.BAT(out.DomainVar)
		if err != nil {
			return nil, err
		}
		n := dom.Len()
		res.Rows = make([]Row, 0, n)
		for i := 0; i < n; i++ {
			oid := dom.Head.OIDAt(i)
			v, err := m.value(out.Elem, oid)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Row{OID: oid, Value: v})
		}
		return res, nil
	}
	switch r := tl.OutScalar.(type) {
	case *ConstRep:
		res.Scalar = r.V
	case *VarRep:
		v, ok := env.Lookup(r.Var)
		if !ok {
			return nil, fmt.Errorf("moa: scalar result variable %q missing", r.Var)
		}
		res.Scalar = v
	default:
		return nil, fmt.Errorf("moa: no result representation")
	}
	return res, nil
}

// materializer turns flattened reps back into Go values.
type materializer struct {
	db       *Database
	env      *mil.Env
	assocIdx map[string]map[bat.OID][]bat.OID
	posIdx   map[string][]int32 // var → dense OID→position index (-1 absent)
}

// lookupAtom finds the value of oid in an atom variable, via a dense
// positional index when the OID space is compact (the common case after
// flattening) and via the hash index otherwise.
func (m *materializer) lookupAtom(varName string, oid bat.OID) (any, bool, error) {
	b, err := m.env.BAT(varName)
	if err != nil {
		return nil, false, err
	}
	if m.posIdx == nil {
		m.posIdx = map[string][]int32{}
	}
	idx, cached := m.posIdx[varName]
	if !cached {
		maxOID := bat.OID(0)
		compact := b.Head.Kind() == bat.KindOID || b.Head.Kind() == bat.KindVoid
		if compact {
			for i := 0; i < b.Len(); i++ {
				if h := b.Head.OIDAt(i); h > maxOID {
					maxOID = h
				}
			}
			if uint64(maxOID) >= uint64(4*b.Len()+1024) {
				compact = false
			}
		}
		if compact {
			idx = make([]int32, maxOID+1)
			for i := range idx {
				idx[i] = -1
			}
			for i := 0; i < b.Len(); i++ {
				h := b.Head.OIDAt(i)
				if idx[h] == -1 {
					idx[h] = int32(i)
				}
			}
		}
		m.posIdx[varName] = idx // nil marks "use hash"
	}
	if idx != nil {
		if uint64(oid) >= uint64(len(idx)) || idx[oid] < 0 {
			return nil, false, nil
		}
		return b.Tail.Get(int(idx[oid])), true, nil
	}
	v, ok := b.Find(oid)
	return v, ok, nil
}

func (m *materializer) value(rep Rep, oid bat.OID) (any, error) {
	switch r := rep.(type) {
	case *AtomRep:
		v, ok, err := m.lookupAtom(r.Var, oid)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil // element absent (e.g. min over empty set)
		}
		return v, nil
	case *ConstRep:
		return r.V, nil
	case *VarRep:
		v, ok := m.env.Lookup(r.Var)
		if !ok {
			return nil, fmt.Errorf("moa: variable %q missing at materialisation", r.Var)
		}
		return v, nil
	case *TupleRep:
		out := make(map[string]any, len(r.Names))
		for i, n := range r.Names {
			v, err := m.value(r.Fields[i], oid)
			if err != nil {
				return nil, err
			}
			out[n] = v
		}
		return out, nil
	case *SetRep:
		children, err := m.children(r.AssocVar, oid)
		if err != nil {
			return nil, err
		}
		out := make([]any, 0, len(children))
		if r.ValsVar == "" {
			for _, ch := range children {
				out = append(out, ch)
			}
			return out, nil
		}
		vals, err := m.env.BAT(r.ValsVar)
		if err != nil {
			return nil, err
		}
		for _, ch := range children {
			v, _ := vals.Find(ch)
			out = append(out, v)
		}
		return out, nil
	case *ElemRep:
		return m.storedValue(r.Prefix, r.T, oid)
	case *StructRep:
		return r.T.S.Materialize(m.db, r.Prefix, oid)
	case *ParamSetRep:
		vals, err := m.env.BAT(r.ValsVar)
		if err != nil {
			return nil, err
		}
		out := make([]any, vals.Len())
		for i := range out {
			out[i] = vals.Tail.Get(i)
		}
		return out, nil
	case *StatsRep:
		return "<stats>", nil
	}
	return nil, fmt.Errorf("moa: cannot materialise %T", rep)
}

// children returns the child OIDs of owner in an association variable,
// building a grouping index on first use.
func (m *materializer) children(assocVar string, owner bat.OID) ([]bat.OID, error) {
	idx, ok := m.assocIdx[assocVar]
	if !ok {
		var b *bat.BAT
		if m.env != nil {
			if bb, err := m.env.BAT(assocVar); err == nil {
				b = bb
			}
		}
		if b == nil {
			bb, found := m.db.BAT(assocVar)
			if !found {
				return nil, fmt.Errorf("moa: association %q not found", assocVar)
			}
			b = bb
		}
		idx = make(map[bat.OID][]bat.OID, b.Len())
		for i := 0; i < b.Len(); i++ {
			h := b.Head.OIDAt(i)
			idx[h] = append(idx[h], b.Tail.OIDAt(i))
		}
		m.assocIdx[assocVar] = idx
	}
	return idx[owner], nil
}

// storedValue reconstructs a stored element (tuple or atom) by reading the
// base BATs directly.
func (m *materializer) storedValue(prefix string, t Type, oid bat.OID) (any, error) {
	switch tt := t.(type) {
	case *AtomType:
		b, ok := m.db.BAT(prefix + "_val")
		if !ok {
			return nil, fmt.Errorf("moa: missing BAT %s_val", prefix)
		}
		v, _ := b.Find(oid)
		return v, nil
	case *TupleType:
		out := make(map[string]any, len(tt.Names))
		for i, n := range tt.Names {
			fprefix := prefix + "_" + n
			switch ft := tt.Types[i].(type) {
			case *AtomType:
				b, ok := m.db.BAT(fprefix)
				if !ok {
					return nil, fmt.Errorf("moa: missing BAT %s", fprefix)
				}
				v, _ := b.Find(oid)
				out[n] = v
			case *StructType:
				v, err := ft.S.Materialize(m.db, fprefix, oid)
				if err != nil {
					return nil, err
				}
				out[n] = v
			case *SetType, *ListType:
				children, err := m.children(fprefix, oid)
				if err != nil {
					return nil, err
				}
				et, _ := ElemType(ft)
				items := make([]any, 0, len(children))
				for _, ch := range children {
					cv, err := m.storedValue(fprefix, et, ch)
					if err != nil {
						return nil, err
					}
					items = append(items, cv)
				}
				out[n] = items
			default:
				return nil, fmt.Errorf("moa: unsupported stored field type %s", tt.Types[i])
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("moa: unsupported stored element type %s", t)
}
