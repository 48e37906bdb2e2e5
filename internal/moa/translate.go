package moa

import (
	"fmt"
	"math"
	"sort"

	"mirror/internal/bat"
	"mirror/internal/mil"
)

// Param is a query parameter binding: a Moa type plus a Go value.
// Supported: atomic params (Go scalar), set-of-atom params ([]string,
// []int64, []float64, []any), weighted sets (a SET of two-field tuples
// whose second field is a flt weight, bound as []any of map[string]any —
// see weightedElem) and the stats handle (value ignored).
type Param struct {
	T Type
	V any
}

// ParamSlot declares one query parameter: its name and Moa type. A query's
// slots are fixed — sorted by name — when it is translated; values are
// bound later, one per slot, in slot order. The emitted MIL depends on the
// slots only, never on a value.
type ParamSlot struct {
	Name string
	T    Type
}

// slotsOf returns the slots a parameter map declares, in binding order.
func slotsOf(params map[string]Param) []ParamSlot {
	slots := make([]ParamSlot, 0, len(params))
	for name, p := range params {
		slots = append(slots, ParamSlot{Name: name, T: p.T})
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].Name < slots[j].Name })
	return slots
}

// Translated is the output of flattening a Moa query: a MIL program, the
// parameter slots with what binding them installs into the environment,
// and the shape of the result. It is immutable once built and holds no
// parameter value, so one Translated serves any number of concurrent
// bind-and-run calls.
type Translated struct {
	Prog  *mil.Program
	T     Type
	Slots []ParamSlot

	// Plan is the optimised logical plan Prog was lowered from; nil for
	// scalar queries.
	Plan Plan

	// Set-typed results:
	OutSet *OutSet
	// Scalar results:
	OutScalar Rep // ConstRep or VarRep

	// Ranked reports that the emitted program already returns the result
	// in ranking order (score descending, OID ascending) cut at
	// Options.TopK — the optimiser pushed the top-k into a pruned
	// physical operator, so the executor must not re-rank.
	Ranked bool

	sets    []setSlot     // set parameters the program reads as slot BATs
	scalars []boundScalar // environment scalars computed from the values at bind time
}

// setSlot is a set-of-atoms parameter the program references: binding it
// installs the value BAT [void, value] and the identity BAT [void, void]
// under the two fixed names the lowering emitted — and, for a weighted
// set, the weight BAT [void, flt] under wgtName.
type setSlot struct {
	slot                     int
	elem                     *AtomType
	valName, idName, wgtName string
	fields                   []string // weighted: the tuple's value and weight field names
}

// scalarFn computes a bind-time scalar from the slot values.
type scalarFn func(vals []any) (any, error)

// boundScalar is an environment scalar Bind computes: an atom parameter,
// or a constant expression over atom parameters folded once per bind
// (with the same rules that fold literals at compile time).
type boundScalar struct {
	name string
	fn   scalarFn
}

// binding is one environment entry a bound query installs before running.
type binding struct {
	name string
	v    any
}

// bind turns one value per slot into the environment entries the program
// expects.
func (tl *Translated) bind(vals []any) ([]binding, error) {
	if len(vals) != len(tl.Slots) {
		return nil, fmt.Errorf("moa: bind: %d values for %d parameter slots", len(vals), len(tl.Slots))
	}
	out := make([]binding, 0, 2*len(tl.sets)+len(tl.scalars))
	for _, ss := range tl.sets {
		name := tl.Slots[ss.slot].Name
		items, err := paramItems(vals[ss.slot])
		if err != nil {
			return nil, fmt.Errorf("moa: parameter %q: %w", name, err)
		}
		vb := bat.NewDense(0, ss.elem.Kind)
		ids := bat.New(bat.KindVoid, bat.KindVoid)
		var wb *bat.BAT
		if ss.wgtName != "" {
			wb = bat.NewDense(0, bat.KindFloat)
		}
		for i, item := range items {
			if wb != nil {
				tv, ok := item.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("moa: parameter %q: weighted element is %T, want map[string]any", name, item)
				}
				w, ok := numVal(tv[ss.fields[1]])
				if !ok {
					return nil, fmt.Errorf("moa: parameter %q: weight %v is not a number", name, tv[ss.fields[1]])
				}
				if err := wb.Append(bat.OID(i), w); err != nil {
					return nil, err
				}
				item = tv[ss.fields[0]]
			}
			if err := vb.Append(bat.OID(i), coerceAtom(ss.elem, item)); err != nil {
				return nil, fmt.Errorf("moa: parameter %q: %w", name, err)
			}
			if err := ids.Append(bat.OID(i), bat.OID(i)); err != nil {
				return nil, err
			}
		}
		out = append(out, binding{ss.valName, vb}, binding{ss.idName, ids})
		if wb != nil {
			out = append(out, binding{ss.wgtName, wb})
		}
	}
	for _, bs := range tl.scalars {
		v, err := bs.fn(vals)
		if err != nil {
			return nil, err
		}
		out = append(out, binding{bs.name, v})
	}
	return out, nil
}

// OutSet describes a set-typed result: the domain variable enumerates the
// element OIDs; Elem is the per-element representation.
type OutSet struct {
	DomainVar string
	Elem      Rep
	ElemT     Type
}

// Translator flattens checked Moa expressions into MIL. Structures'
// EmitMap hooks receive it to emit their own MIL.
type Translator struct {
	db       *Database
	prog     *mil.Program
	slots    []ParamSlot
	slotIdx  map[string]int
	n        int
	opts     Options
	cse      map[string]string
	paramSet map[string]*ParamSetRep
	sets     []setSlot
	scalars  []boundScalar
	bound    map[string]scalarFn // bind-time scalars by environment name
	ranked   bool
}

// Translate flattens a checked expression through the plan pipeline:
// build the logical plan, optimise it (including top-k pushdown when
// opts.TopK asks for a ranked cut), and lower the result to MIL. It reads
// the parameters' names and types only; this is the one place in the
// system a query is planned and lowered.
func Translate(db *Database, e Expr, slots []ParamSlot, opts Options) (*Translated, error) {
	tr := &Translator{
		db:       db,
		prog:     &mil.Program{},
		slots:    slots,
		slotIdx:  make(map[string]int, len(slots)),
		opts:     opts,
		cse:      map[string]string{},
		paramSet: map[string]*ParamSetRep{},
		bound:    map[string]scalarFn{},
	}
	for i, sl := range slots {
		tr.slotIdx[sl.Name] = i
	}
	out, err := tr.translate(e)
	if err != nil {
		return nil, err
	}
	out.Slots, out.sets, out.scalars = slots, tr.sets, tr.scalars
	return out, nil
}

func (tr *Translator) translate(e Expr) (*Translated, error) {
	opts := tr.opts
	out := &Translated{Prog: tr.prog, T: e.Type()}
	if _, isSet := ElemType(e.Type()); isSet {
		plan, err := tr.BuildPlan(e)
		if err != nil {
			return nil, err
		}
		if opts.TopK > 0 {
			plan = &TopKPlan{Src: plan, K: opts.TopK}
		}
		plan = OptimizePlan(plan, opts)
		out.Plan = plan
		sv, err := tr.lowerPlan(plan)
		if err != nil {
			return nil, err
		}
		out.Ranked = tr.ranked
		ctx := tr.newCtx(sv)
		elem, err := sv.MkElem(ctx)
		if err != nil {
			return nil, err
		}
		out.OutSet = &OutSet{DomainVar: sv.DomainVar, Elem: elem, ElemT: sv.ElemT}
		return out, nil
	}
	rep, err := tr.compile(e, nil)
	if err != nil {
		return nil, err
	}
	switch rep.(type) {
	case *ConstRep, *VarRep:
		out.OutScalar = rep
	default:
		return nil, fmt.Errorf("moa: scalar query produced %T representation", rep)
	}
	return out, nil
}

// Opts exposes the active optimisation options (used by structure hooks).
func (tr *Translator) Opts() Options { return tr.opts }

// Fresh allocates a fresh MIL variable name.
func (tr *Translator) Fresh(pfx string) string {
	tr.n++
	return fmt.Sprintf("%s_%d", pfx, tr.n)
}

// Emit appends `v := e` and returns v. When CSE is on, an identical prior
// expression is reused instead (every emitted operation is pure).
func (tr *Translator) Emit(pfx string, e mil.Expr) string {
	key := mil.Render(e)
	if tr.opts.CSE {
		if v, ok := tr.cse[key]; ok {
			return v
		}
	}
	v := tr.Fresh(pfx)
	tr.prog.Assign(v, e)
	if tr.opts.CSE {
		tr.cse[key] = v
	}
	return v
}

// Restrict joins a [elemOID, value] variable through the context domain,
// unless the context is the full stored domain.
func (tr *Translator) Restrict(varName string, ctx *Ctx) string {
	if ctx == nil || ctx.Full {
		return varName
	}
	return tr.Emit("r", mil.C("join", mil.R(ctx.DomainVar), mil.R(varName)))
}

// SetVal is the compiled form of a set-typed expression.
type SetVal struct {
	DomainVar string
	Full      bool
	ElemT     Type
	MkElem    func(ctx *Ctx) (Rep, error)
}

// newCtx builds the map context over a compiled set and binds THIS.
func (tr *Translator) newCtx(sv *SetVal) *Ctx {
	ctx := &Ctx{DomainVar: sv.DomainVar, Full: sv.Full, ElemT: sv.ElemT}
	ctx.This = &lazyThis{sv: sv, ctx: ctx}
	return ctx
}

// lazyThis defers MkElem until THIS is actually used.
type lazyThis struct {
	sv   *SetVal
	ctx  *Ctx
	memo Rep
}

func (*lazyThis) isRep() {}

func (lt *lazyThis) force(tr *Translator) (Rep, error) {
	if lt.memo == nil {
		r, err := lt.sv.MkElem(lt.ctx)
		if err != nil {
			return nil, err
		}
		lt.memo = r
	}
	return lt.memo, nil
}

// ---- set expressions: plan pipeline + lowering ----

// compileSetExpr flattens a set-typed (sub)expression: build its plan,
// optimise, lower. Top-k wrapping happens only at the query root
// (Translate), never for nested set compilations.
func (tr *Translator) compileSetExpr(e Expr) (*SetVal, error) {
	plan, err := tr.BuildPlan(e)
	if err != nil {
		return nil, err
	}
	return tr.lowerPlan(OptimizePlan(plan, tr.opts))
}

// lowerPlan emits MIL for an optimised plan and returns the compiled set.
func (tr *Translator) lowerPlan(p Plan) (*SetVal, error) {
	switch n := p.(type) {
	case *ScanPlan:
		return tr.lowerScan(n)
	case *ParamScanPlan:
		return tr.lowerParamScan(n)
	case *MapPlan:
		src, err := tr.lowerPlan(n.Src)
		if err != nil {
			return nil, err
		}
		ctx := tr.newCtx(src)
		body, err := tr.compile(n.Body, ctx)
		if err != nil {
			return nil, err
		}
		bodyT := n.Body.Type()
		return &SetVal{
			DomainVar: src.DomainVar,
			Full:      src.Full,
			ElemT:     bodyT,
			MkElem: func(ctx2 *Ctx) (Rep, error) {
				if ctx2.DomainVar == src.DomainVar {
					return body, nil
				}
				return tr.restrictRep(body, ctx2)
			},
		}, nil
	case *SelectPlan:
		src, err := tr.lowerPlan(n.Src)
		if err != nil {
			return nil, err
		}
		ctx := tr.newCtx(src)
		pred, err := tr.compile(n.Pred, ctx)
		if err != nil {
			return nil, err
		}
		switch p := pred.(type) {
		case *ConstRep:
			if b, _ := p.V.(bool); b {
				return src, nil
			}
			empty := tr.Emit("d", mil.C("slice", mil.R(src.DomainVar), mil.L(int64(0)), mil.L(int64(0))))
			return &SetVal{DomainVar: empty, Full: false, ElemT: src.ElemT, MkElem: src.MkElem}, nil
		case *AtomRep:
			sel := tr.Emit("sel", mil.C("select", mil.R(p.Var), mil.L(true)))
			dom := tr.Emit("d", mil.C("mirror", mil.R(sel)))
			return &SetVal{DomainVar: dom, Full: false, ElemT: src.ElemT, MkElem: src.MkElem}, nil
		case *VarRep:
			// A predicate over atom parameters alone keeps or drops the
			// whole source, and which is known only at bind time: the
			// program slices the domain to count·keep, keep ∈ {0, 1}.
			keep, err := tr.foldScalars(FloatType, func(a []*ConstRep) (*ConstRep, error) {
				if b, _ := a[0].V.(bool); b {
					return &ConstRep{V: 1.0, T: FloatType}, nil
				}
				return &ConstRep{V: 0.0, T: FloatType}, nil
			}, p)
			if err != nil {
				return nil, err
			}
			hi := tr.Emit("n", mil.C("calc", mil.L("*"), mil.C("count", mil.R(src.DomainVar)), constMilExpr(keep)))
			dom := tr.Emit("d", mil.C("slice", mil.R(src.DomainVar), mil.L(int64(0)), mil.R(hi)))
			return &SetVal{DomainVar: dom, Full: false, ElemT: src.ElemT, MkElem: src.MkElem}, nil
		}
		return nil, fmt.Errorf("moa: select predicate compiled to %T", pred)
	case *JoinPlan:
		return tr.lowerJoin(n)
	case *TopKPlan:
		// Exact fallback: the optimiser could not push the cut into a
		// pruned operator; lower the source exhaustively and let the
		// executor's ranking apply k.
		return tr.lowerPlan(n.Src)
	case *PrunedPlan:
		sv, err := tr.lowerPruned(n)
		if err != nil {
			return nil, err
		}
		tr.ranked = true
		return sv, nil
	}
	return nil, fmt.Errorf("moa: cannot lower plan %T", p)
}

// HasBAT reports whether a stored physical BAT exists; structure emit
// hooks use it to verify their derived columns before emitting references.
func (tr *Translator) HasBAT(name string) bool {
	_, ok := tr.db.BAT(name)
	return ok
}

// lowerScan compiles a stored-collection scan.
func (tr *Translator) lowerScan(n *ScanPlan) (*SetVal, error) {
	def, ok := tr.db.Set(n.Set)
	if !ok {
		return nil, fmt.Errorf("moa: unknown set %q", n.Set)
	}
	elem := def.Type.(*SetType).Elem
	prefix := n.Set
	return &SetVal{
		DomainVar: prefix + "__id",
		Full:      true,
		ElemT:     elem,
		MkElem: func(ctx *Ctx) (Rep, error) {
			switch et := elem.(type) {
			case *AtomType:
				return &AtomRep{Var: tr.Restrict(prefix+"_val", ctx), T: et}, nil
			case *TupleType:
				return &ElemRep{Prefix: prefix, Ctx: ctx, T: et}, nil
			}
			return nil, fmt.Errorf("moa: unsupported element type %s", elem)
		},
	}, nil
}

// lowerParamScan compiles a set-parameter scan.
func (tr *Translator) lowerParamScan(n *ParamScanPlan) (*SetVal, error) {
	psr, err := tr.bindParamSet(n.Name, n.T)
	if err != nil {
		return nil, err
	}
	if psr.WeightsVar != "" {
		return nil, fmt.Errorf("moa: weighted set parameter %q is only usable as a structure function's query", n.Name)
	}
	idVar := "param_" + n.Name + "_id"
	return &SetVal{
		DomainVar: idVar,
		Full:      false, // param value BATs are keyed by their own OIDs
		ElemT:     n.T.Elem,
		MkElem: func(ctx *Ctx) (Rep, error) {
			return &AtomRep{Var: tr.Restrict(psr.ValsVar, paramCtx(ctx, idVar)), T: n.T.Elem}, nil
		},
	}, nil
}

// lowerPruned compiles the fused top-k retrieval: the scan supplies the
// full context, the structure's EmitTopK emits the physical operator over
// every summed call.
func (tr *Translator) lowerPruned(n *PrunedPlan) (*SetVal, error) {
	scan, err := tr.lowerScan(n.Src)
	if err != nil {
		return nil, err
	}
	ctx := tr.newCtx(scan)
	calls := make([]TopKCall, len(n.Calls))
	for i, call := range n.Calls {
		if calls[i].Recv, err = tr.compile(call.Args[0], ctx); err != nil {
			return nil, err
		}
		for _, a := range call.Args[1:] {
			r, err := tr.compile(a, ctx)
			if err != nil {
				return nil, err
			}
			calls[i].Extra = append(calls[i].Extra, r)
		}
	}
	return n.Fn.EmitTopK(tr, ctx, calls, n.Div, n.K)
}

// paramCtx adapts a context for a parameter set: parameters live in their
// own OID domain, so the "full" shortcut applies when the context domain is
// the parameter's identity BAT itself.
func paramCtx(ctx *Ctx, idVar string) *Ctx {
	if ctx.DomainVar == idVar {
		c := *ctx
		c.Full = true
		return &c
	}
	return ctx
}

// bindParamSet declares a set parameter's slot BATs — the value BAT and
// its identity BAT, under names fixed by the parameter's name — which Bind
// builds from the call's value.
func (tr *Translator) bindParamSet(name string, st *SetType) (*ParamSetRep, error) {
	if psr, ok := tr.paramSet[name]; ok {
		return psr, nil
	}
	ss := setSlot{slot: tr.slotIdx[name], valName: "param_" + name + "_val", idName: "param_" + name + "_id"}
	if tt, at, ok := weightedElem(st.Elem); ok {
		ss.elem, ss.wgtName, ss.fields = at, "param_"+name+"_wgt", tt.Names
	} else if ss.elem, ok = st.Elem.(*AtomType); !ok {
		return nil, fmt.Errorf("moa: set parameter %q must contain atoms or (atom, flt weight) pairs", name)
	}
	tr.sets = append(tr.sets, ss)
	psr := &ParamSetRep{ValsVar: ss.valName, WeightsVar: ss.wgtName, ElemT: st.Elem}
	tr.paramSet[name] = psr
	return psr, nil
}

// weightedElem reports whether a set's element type makes it a weighted
// set — a two-field tuple of an atom value and a flt weight, e.g. the
// TUPLE<str: term, flt: weight> of a weighted query — and returns the
// tuple and its value atom. A weighted set parameter binds as two
// aligned BATs: its values, as any atom set, and their weights.
func weightedElem(elem Type) (*TupleType, *AtomType, bool) {
	tt, ok := elem.(*TupleType)
	if !ok || len(tt.Types) != 2 || !tt.Types[1].Equal(FloatType) {
		return nil, nil, false
	}
	at, ok := tt.Types[0].(*AtomType)
	return tt, at, ok
}

// paramScalar declares an atom parameter's environment scalar.
func (tr *Translator) paramScalar(slot int, at *AtomType) *VarRep {
	name := "param_" + tr.slots[slot].Name
	if _, ok := tr.bound[name]; ok {
		return &VarRep{Var: name, T: at}
	}
	return tr.bindScalar(name, at, func(vals []any) (any, error) { return coerceAtom(at, vals[slot]), nil })
}

// bindScalar registers an environment scalar computed at bind time.
func (tr *Translator) bindScalar(name string, t Type, fn scalarFn) *VarRep {
	tr.bound[name] = fn
	tr.scalars = append(tr.scalars, boundScalar{name: name, fn: fn})
	return &VarRep{Var: name, T: t}
}

// foldScalars applies a constant-folding rule to scalar operands: at once
// when all are compile-time constants; when some derive from atom
// parameters, as a scalar computed by the same rule once per bind. Scalars
// a MIL aggregate computes at run time cannot be folded.
func (tr *Translator) foldScalars(t Type, fold func([]*ConstRep) (*ConstRep, error), operands ...Rep) (Rep, error) {
	consts := make([]*ConstRep, len(operands)) // nil where the operand is bind-time
	fns := make([]scalarFn, len(operands))
	types := make([]Type, len(operands))
	allConst := true
	for i, o := range operands {
		switch c := o.(type) {
		case *ConstRep:
			consts[i] = c
		case *VarRep:
			allConst = false
			if fns[i], types[i] = tr.bound[c.Var], c.T; fns[i] == nil {
				return nil, fmt.Errorf("moa: run-time scalar %s cannot be an operand of a scalar expression", c.Var)
			}
		default:
			return nil, fmt.Errorf("moa: %T is not a scalar operand", o)
		}
	}
	if allConst {
		c, err := fold(consts)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return tr.bindScalar(tr.Fresh("ps"), t, func(vals []any) (any, error) {
		args := make([]*ConstRep, len(consts))
		for i, c := range consts {
			if args[i] = c; c != nil {
				continue
			}
			v, err := fns[i](vals)
			if err != nil {
				return nil, err
			}
			args[i] = &ConstRep{V: v, T: types[i]}
		}
		c, err := fold(args)
		if err != nil {
			return nil, err
		}
		return c.V, nil
	}), nil
}

func paramItems(v any) ([]any, error) {
	switch items := v.(type) {
	case []any:
		return items, nil
	case []string:
		out := make([]any, len(items))
		for i, s := range items {
			out[i] = s
		}
		return out, nil
	case []int64:
		out := make([]any, len(items))
		for i, s := range items {
			out[i] = s
		}
		return out, nil
	case []float64:
		out := make([]any, len(items))
		for i, s := range items {
			out[i] = s
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported set parameter value %T", v)
}

// ---- join ----

// lowerJoin flattens join[THIS1.f = THIS2.g (and ...)](L, R): candidate
// pairs from the first equality, residual equalities as filters, result
// fields projected through the pair columns.
func (tr *Translator) lowerJoin(n *JoinPlan) (*SetVal, error) {
	x := n.E
	left, err := tr.lowerPlan(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := tr.lowerPlan(n.Right)
	if err != nil {
		return nil, err
	}
	eqs := collectJoinEqs(x.Pred)
	if len(eqs) == 0 {
		return nil, fmt.Errorf("moa: join predicate has no equality")
	}
	lvar0, err := tr.setFieldVar(left, eqs[0].lfield)
	if err != nil {
		return nil, err
	}
	rvar0, err := tr.setFieldVar(right, eqs[0].rfield)
	if err != nil {
		return nil, err
	}
	// pairs [lOID, rOID]
	pairs := tr.Emit("pairs", mil.C("join", mil.R(lvar0), mil.C("reverse", mil.R(rvar0))))
	// pair columns keyed by a fresh dense pair OID
	lcol := tr.Emit("lcol", mil.C("reverse", mil.C("mark", mil.R(pairs), mil.L(int64(0)))))
	rcol := tr.Emit("rcol", mil.C("reverse", mil.C("mark", mil.C("reverse", mil.R(pairs)), mil.L(int64(0)))))
	for _, eq := range eqs[1:] {
		lv, err := tr.setFieldVar(left, eq.lfield)
		if err != nil {
			return nil, err
		}
		rv, err := tr.setFieldVar(right, eq.rfield)
		if err != nil {
			return nil, err
		}
		lvals := tr.Emit("lv", mil.C("join", mil.R(lcol), mil.R(lv)))
		rvals := tr.Emit("rv", mil.C("join", mil.R(rcol), mil.R(rv)))
		ok := tr.Emit("ok", mil.M("==", mil.R(lvals), mil.R(rvals)))
		keep := tr.Emit("keep", mil.C("mirror", mil.C("select", mil.R(ok), mil.L(true))))
		lcol = tr.Emit("lcol", mil.C("join", mil.R(keep), mil.R(lcol)))
		rcol = tr.Emit("rcol", mil.C("join", mil.R(keep), mil.R(rcol)))
	}
	dom := tr.Emit("jd", mil.C("mirror", mil.R(lcol)))
	merged := x.T.(*SetType).Elem.(*TupleType)
	ltt := x.Left.Type().(*SetType).Elem.(*TupleType)
	lcolVar, rcolVar := lcol, rcol

	return &SetVal{
		DomainVar: dom,
		Full:      false,
		ElemT:     merged,
		MkElem: func(ctx *Ctx) (Rep, error) {
			trep := &TupleRep{T: merged}
			for i, name := range merged.Names {
				var side *SetVal
				col := lcolVar
				if _, fromLeft := ltt.Field(name); !fromLeft {
					side = right
					col = rcolVar
				} else {
					side = left
				}
				restrictedCol := col
				if ctx.DomainVar != dom {
					restrictedCol = tr.Emit("r", mil.C("join", mil.R(ctx.DomainVar), mil.R(col)))
				}
				fr, err := tr.joinFieldRep(side, name, restrictedCol, merged.Types[i])
				if err != nil {
					return nil, fmt.Errorf("moa: join result field %q: %w", name, err)
				}
				trep.Names = append(trep.Names, name)
				trep.Fields = append(trep.Fields, fr)
			}
			return trep, nil
		},
	}, nil
}

// joinFieldRep projects one field of a join operand through the pair
// column col ([pairOID, sideOID]). Atomic fields and nested sets map
// through; structure fields (CONTREP) do not survive a join, since their
// postings reference the operand's own OIDs.
func (tr *Translator) joinFieldRep(side *SetVal, name, col string, ft Type) (Rep, error) {
	ctx := tr.newCtx(side)
	elem, err := side.MkElem(ctx)
	if err != nil {
		return nil, err
	}
	fr, err := tr.getField(elem, name, ctx)
	if err != nil {
		return nil, err
	}
	switch r := fr.(type) {
	case *AtomRep:
		v := tr.Emit("jf", mil.C("join", mil.R(col), mil.R(r.Var)))
		return &AtomRep{Var: v, T: ft}, nil
	case *SetRep:
		assoc := tr.Emit("ja", mil.C("join", mil.R(col), mil.R(r.AssocVar)))
		return &SetRep{AssocVar: assoc, ValsVar: r.ValsVar, PosVar: r.PosVar, ElemT: r.ElemT}, nil
	}
	return nil, fmt.Errorf("moa: field of type %s cannot be projected through a join", ft)
}

type joinEq struct{ lfield, rfield string }

func collectJoinEqs(e Expr) []joinEq {
	b, ok := e.(*BinExpr)
	if !ok {
		return nil
	}
	if b.Op == "and" {
		return append(collectJoinEqs(b.L), collectJoinEqs(b.R)...)
	}
	if b.Op != "=" {
		return nil
	}
	lf := b.L.(*Field)
	rf := b.R.(*Field)
	eq := joinEq{lfield: lf.Name, rfield: rf.Name}
	if lf.Recv.(*Ident).Name == "THIS2" {
		eq.lfield, eq.rfield = rf.Name, lf.Name
	}
	return []joinEq{eq}
}

// setFieldVar compiles access to an atomic field of a set's elements over
// the set's full domain, returning the MIL variable [elemOID, value].
func (tr *Translator) setFieldVar(sv *SetVal, field string) (string, error) {
	ctx := tr.newCtx(sv)
	elem, err := sv.MkElem(ctx)
	if err != nil {
		return "", err
	}
	fr, err := tr.getField(elem, field, ctx)
	if err != nil {
		return "", err
	}
	ar, ok := fr.(*AtomRep)
	if !ok {
		return "", fmt.Errorf("moa: join field %q must be atomic", field)
	}
	return ar.Var, nil
}

// ---- expressions within a context ----

func (tr *Translator) compile(e Expr, ctx *Ctx) (Rep, error) {
	switch x := e.(type) {
	case *This:
		if ctx == nil {
			return nil, fmt.Errorf("moa: THIS outside map context")
		}
		if lt, ok := ctx.This.(*lazyThis); ok {
			return lt.force(tr)
		}
		return ctx.This, nil

	case *LitExpr:
		return &ConstRep{V: x.V, T: x.T}, nil

	case *Ident:
		if slot, ok := tr.slotIdx[x.Name]; ok {
			pt := tr.slots[slot].T
			if pt.Equal(StatsType) {
				return &StatsRep{}, nil
			}
			if st, ok := pt.(*SetType); ok {
				return tr.bindParamSet(x.Name, st)
			}
			at, ok := pt.(*AtomType)
			if !ok {
				return nil, fmt.Errorf("moa: unsupported parameter type %s", pt)
			}
			return tr.paramScalar(slot, at), nil
		}
		return nil, fmt.Errorf("moa: name %q not usable in value position", x.Name)

	case *Field:
		recv, err := tr.compile(x.Recv, ctx)
		if err != nil {
			return nil, err
		}
		return tr.getField(recv, x.Name, ctx)

	case *CallExpr:
		return tr.compileCall(x, ctx)

	case *BinExpr:
		return tr.compileBin(x, ctx)

	case *UnExpr:
		inner, err := tr.compile(x.E, ctx)
		if err != nil {
			return nil, err
		}
		switch r := inner.(type) {
		case *ConstRep, *VarRep:
			return tr.foldScalars(x.T, func(a []*ConstRep) (*ConstRep, error) { return foldUnary(x.Op, a[0]) }, r)
		case *AtomRep:
			if x.Op == "not" {
				return &AtomRep{Var: tr.Emit("u", mil.M("not", mil.R(r.Var))), T: BoolType}, nil
			}
			return &AtomRep{Var: tr.Emit("u", mil.M("neg", mil.R(r.Var))), T: x.T}, nil
		}
		return nil, fmt.Errorf("moa: unary %s on %T", x.Op, inner)

	case *TupleExpr:
		trep := &TupleRep{T: x.T.(*TupleType)}
		for i := range x.Names {
			fr, err := tr.compile(x.Elems[i], ctx)
			if err != nil {
				return nil, err
			}
			trep.Names = append(trep.Names, x.Names[i])
			trep.Fields = append(trep.Fields, fr)
		}
		return trep, nil

	case *MapExpr, *SelectExpr, *JoinExpr:
		return nil, fmt.Errorf("moa: nested %T inside a map body is not supported by the flattened executor (use the interpreter)", e)
	}
	return nil, fmt.Errorf("moa: cannot flatten node %T", e)
}

// getField accesses a tuple field on a compiled receiver.
func (tr *Translator) getField(recv Rep, name string, ctx *Ctx) (Rep, error) {
	if lt, ok := recv.(*lazyThis); ok {
		r, err := lt.force(tr)
		if err != nil {
			return nil, err
		}
		recv = r
	}
	switch r := recv.(type) {
	case *TupleRep:
		for i, n := range r.Names {
			if n == name {
				return r.Fields[i], nil
			}
		}
		return nil, fmt.Errorf("moa: tuple has no field %q", name)
	case *ElemRep:
		tt, ok := r.T.(*TupleType)
		if !ok {
			return nil, fmt.Errorf("moa: field access on non-tuple element")
		}
		ft, ok := tt.Field(name)
		if !ok {
			return nil, fmt.Errorf("moa: no field %q", name)
		}
		stored := r.Prefix + "_" + name
		switch t := ft.(type) {
		case *AtomType:
			return &AtomRep{Var: tr.Restrict(stored, r.Ctx), T: t}, nil
		case *StructType:
			return &StructRep{Prefix: stored, Ctx: r.Ctx, T: t}, nil
		case *SetType, *ListType:
			assoc := stored
			if !r.Ctx.Full {
				assoc = tr.Emit("as", mil.C("semijoin", mil.R(stored), mil.R(r.Ctx.DomainVar)))
			}
			et, _ := ElemType(ft)
			sr := &SetRep{AssocVar: assoc, ElemT: et}
			if _, isAtom := et.(*AtomType); isAtom {
				sr.ValsVar = stored + "_val"
			}
			if _, isList := ft.(*ListType); isList {
				sr.PosVar = stored + "_pos"
			}
			return sr, nil
		}
		return nil, fmt.Errorf("moa: unsupported field type %s", ft)
	}
	return nil, fmt.Errorf("moa: field access on %T", recv)
}

// ---- calls ----

func (tr *Translator) compileCall(x *CallExpr, ctx *Ctx) (Rep, error) {
	// Structure function?
	if len(x.Args) > 0 {
		if sf, ok := lookupStructFunc(x.Fn, x.Args[0].Type()); ok {
			recv, err := tr.compile(x.Args[0], ctx)
			if err != nil {
				return nil, err
			}
			extra := make([]Rep, 0, len(x.Args)-1)
			for _, a := range x.Args[1:] {
				r, err := tr.compile(a, ctx)
				if err != nil {
					return nil, err
				}
				extra = append(extra, r)
			}
			return sf.EmitMap(tr, ctx, recv, extra)
		}
	}

	if kernelAggs[x.Fn] {
		return tr.compileAgg(x, ctx)
	}

	if kernelScalarFns[x.Fn] {
		arg, err := tr.compile(x.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		switch r := arg.(type) {
		case *ConstRep, *VarRep:
			return tr.foldScalars(FloatType, func(a []*ConstRep) (*ConstRep, error) { return foldScalarFn(x.Fn, a[0]) }, r)
		case *AtomRep:
			return &AtomRep{Var: tr.Emit("f", mil.M(x.Fn, mil.R(r.Var))), T: FloatType}, nil
		}
		return nil, fmt.Errorf("moa: %s on %T", x.Fn, arg)
	}

	return nil, fmt.Errorf("moa: unknown function %q", x.Fn)
}

// compileAgg handles sum/count/min/max/avg in three shapes: over a nested
// set of the current element (grouped pump), over a constant parameter set
// (scalar), and over a top-level set expression (scalar).
func (tr *Translator) compileAgg(x *CallExpr, ctx *Ctx) (Rep, error) {
	arg := x.Args[0]
	switch arg.(type) {
	case *MapExpr, *SelectExpr, *JoinExpr:
		return tr.scalarAggOverSet(x.Fn, arg, x.T)
	case *Ident:
		id := arg.(*Ident)
		if _, isParam := tr.slotIdx[id.Name]; !isParam {
			return tr.scalarAggOverSet(x.Fn, arg, x.T)
		}
	}

	rep, err := tr.compile(arg, ctx)
	if err != nil {
		return nil, err
	}
	switch r := rep.(type) {
	case *SetRep:
		if x.Fn == "count" {
			cnt := tr.Emit("cnt", mil.P("count", mil.R(r.AssocVar)))
			filled := tr.Emit("cnt", mil.C("fill", mil.R(cnt), mil.R(ctx.DomainVar), mil.L(int64(0))))
			return &AtomRep{Var: filled, T: IntType}, nil
		}
		if r.ValsVar == "" {
			return nil, fmt.Errorf("moa: %s over non-atomic nested set", x.Fn)
		}
		joined := tr.Emit("jv", mil.C("join", mil.R(r.AssocVar), mil.R(r.ValsVar)))
		agg := tr.Emit("ag", mil.P(x.Fn, mil.R(joined)))
		if x.Fn == "sum" {
			agg = tr.Emit("ag", mil.C("fill", mil.R(agg), mil.R(ctx.DomainVar), mil.L(0.0)))
		}
		return &AtomRep{Var: agg, T: x.T}, nil
	case *ParamSetRep:
		v := tr.Emit("pa", mil.C(milAggName(x.Fn), mil.R(r.ValsVar)))
		return &VarRep{Var: v, T: x.T}, nil
	}
	return nil, fmt.Errorf("moa: %s over %T", x.Fn, rep)
}

// scalarAggOverSet aggregates a whole set expression to one scalar.
func (tr *Translator) scalarAggOverSet(fn string, setExpr Expr, rt Type) (Rep, error) {
	sv, err := tr.compileSetExpr(setExpr)
	if err != nil {
		return nil, err
	}
	if fn == "count" {
		v := tr.Emit("pa", mil.C("count", mil.R(sv.DomainVar)))
		return &VarRep{Var: v, T: rt}, nil
	}
	ctx := tr.newCtx(sv)
	elem, err := sv.MkElem(ctx)
	if err != nil {
		return nil, err
	}
	ar, ok := elem.(*AtomRep)
	if !ok {
		return nil, fmt.Errorf("moa: %s over a set of %T elements", fn, elem)
	}
	v := tr.Emit("pa", mil.C(milAggName(fn), mil.R(ar.Var)))
	return &VarRep{Var: v, T: rt}, nil
}

func milAggName(fn string) string { return fn } // Moa and MIL agree on names

// ---- binary operators ----

func (tr *Translator) compileBin(x *BinExpr, ctx *Ctx) (Rep, error) {
	l, err := tr.compile(x.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := tr.compile(x.R, ctx)
	if err != nil {
		return nil, err
	}
	op := x.Op
	if op == "=" {
		op = "=="
	}
	lc, lConst := constOperand(l)
	rc, rConst := constOperand(r)
	la, lAtom := l.(*AtomRep)
	ra, rAtom := r.(*AtomRep)
	switch {
	case lConst && rConst:
		return tr.foldScalars(x.T, func(a []*ConstRep) (*ConstRep, error) { return foldBinary(x, a[0], a[1]) }, lc, rc)
	case lAtom && rAtom:
		return &AtomRep{Var: tr.Emit("b", mil.M(op, mil.R(la.Var), mil.R(ra.Var))), T: x.T}, nil
	case lAtom && rConst:
		return &AtomRep{Var: tr.Emit("b", mil.M(op, mil.R(la.Var), constMilExpr(rc))), T: x.T}, nil
	case lConst && rAtom:
		return &AtomRep{Var: tr.Emit("b", mil.M(op, constMilExpr(lc), mil.R(ra.Var))), T: x.T}, nil
	}
	return nil, fmt.Errorf("moa: operator %s on %T and %T", x.Op, l, r)
}

// constOperand extracts a compile- or run-time scalar operand.
func constOperand(r Rep) (Rep, bool) {
	switch r.(type) {
	case *ConstRep, *VarRep:
		return r, true
	}
	return nil, false
}

// constMilExpr renders a scalar operand as a MIL expression.
func constMilExpr(r Rep) mil.Expr {
	switch c := r.(type) {
	case *ConstRep:
		return mil.L(c.V)
	case *VarRep:
		return mil.R(c.Var)
	}
	panic("moa: not a scalar operand")
}

// foldBinary evaluates const⊕const.
func foldBinary(x *BinExpr, lc, rc *ConstRep) (*ConstRep, error) {
	switch x.Op {
	case "and", "or":
		lb, _ := lc.V.(bool)
		rb, _ := rc.V.(bool)
		if x.Op == "and" {
			return &ConstRep{V: lb && rb, T: BoolType}, nil
		}
		return &ConstRep{V: lb || rb, T: BoolType}, nil
	}
	lf, lIsNum := numVal(lc.V)
	rf, rIsNum := numVal(rc.V)
	if lIsNum && rIsNum {
		switch x.Op {
		case "+":
			return numConst(lf+rf, x.T), nil
		case "-":
			return numConst(lf-rf, x.T), nil
		case "*":
			return numConst(lf*rf, x.T), nil
		case "/":
			if rf == 0 {
				return numConst(0, x.T), nil
			}
			return numConst(lf/rf, x.T), nil
		case "=", "==":
			return &ConstRep{V: lf == rf, T: BoolType}, nil
		case "!=":
			return &ConstRep{V: lf != rf, T: BoolType}, nil
		case "<":
			return &ConstRep{V: lf < rf, T: BoolType}, nil
		case "<=":
			return &ConstRep{V: lf <= rf, T: BoolType}, nil
		case ">":
			return &ConstRep{V: lf > rf, T: BoolType}, nil
		case ">=":
			return &ConstRep{V: lf >= rf, T: BoolType}, nil
		}
	}
	ls, lStr := lc.V.(string)
	rs, rStr := rc.V.(string)
	if lStr && rStr {
		switch x.Op {
		case "+":
			return &ConstRep{V: ls + rs, T: StrType}, nil
		case "=", "==":
			return &ConstRep{V: ls == rs, T: BoolType}, nil
		case "!=":
			return &ConstRep{V: ls != rs, T: BoolType}, nil
		case "<":
			return &ConstRep{V: ls < rs, T: BoolType}, nil
		case "<=":
			return &ConstRep{V: ls <= rs, T: BoolType}, nil
		case ">":
			return &ConstRep{V: ls > rs, T: BoolType}, nil
		case ">=":
			return &ConstRep{V: ls >= rs, T: BoolType}, nil
		}
	}
	return nil, fmt.Errorf("moa: cannot fold %s on %T,%T", x.Op, lc.V, rc.V)
}

func foldUnary(op string, c *ConstRep) (*ConstRep, error) {
	switch op {
	case "not":
		b, ok := c.V.(bool)
		if !ok {
			return nil, fmt.Errorf("moa: not on %T", c.V)
		}
		return &ConstRep{V: !b, T: BoolType}, nil
	case "-":
		switch v := c.V.(type) {
		case int64:
			return &ConstRep{V: -v, T: IntType}, nil
		case float64:
			return &ConstRep{V: -v, T: FloatType}, nil
		}
	}
	return nil, fmt.Errorf("moa: cannot fold unary %s", op)
}

func foldScalarFn(fn string, c *ConstRep) (*ConstRep, error) {
	v, ok := numVal(c.V)
	if !ok {
		return nil, fmt.Errorf("moa: %s on %T", fn, c.V)
	}
	var out float64
	switch fn {
	case "log":
		out = math.Log(v)
	case "exp":
		out = math.Exp(v)
	case "sqrt":
		out = math.Sqrt(v)
	case "abs":
		out = math.Abs(v)
	default:
		return nil, fmt.Errorf("moa: unknown scalar fn %q", fn)
	}
	return &ConstRep{V: out, T: FloatType}, nil
}

func numVal(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bat.OID:
		return float64(x), true
	}
	return 0, false
}

func numConst(v float64, t Type) *ConstRep {
	if t.Equal(IntType) {
		return &ConstRep{V: int64(v), T: IntType}
	}
	return &ConstRep{V: v, T: FloatType}
}

// restrictRep re-aligns an already-computed representation to a narrower
// domain (after a select over a computed set).
func (tr *Translator) restrictRep(r Rep, ctx *Ctx) (Rep, error) {
	switch x := r.(type) {
	case *AtomRep:
		return &AtomRep{Var: tr.Emit("r", mil.C("join", mil.R(ctx.DomainVar), mil.R(x.Var))), T: x.T}, nil
	case *ConstRep, *VarRep, *ParamSetRep, *StatsRep:
		return r, nil
	case *TupleRep:
		out := &TupleRep{T: x.T, Names: append([]string(nil), x.Names...)}
		for _, f := range x.Fields {
			rf, err := tr.restrictRep(f, ctx)
			if err != nil {
				return nil, err
			}
			out.Fields = append(out.Fields, rf)
		}
		return out, nil
	case *SetRep:
		assoc := tr.Emit("as", mil.C("semijoin", mil.R(x.AssocVar), mil.R(ctx.DomainVar)))
		return &SetRep{AssocVar: assoc, ValsVar: x.ValsVar, PosVar: x.PosVar, ElemT: x.ElemT}, nil
	case *ElemRep:
		return &ElemRep{Prefix: x.Prefix, Ctx: ctx, T: x.T}, nil
	case *StructRep:
		return &StructRep{Prefix: x.Prefix, Ctx: ctx, T: x.T}, nil
	case *lazyThis:
		forced, err := x.force(tr)
		if err != nil {
			return nil, err
		}
		return tr.restrictRep(forced, ctx)
	}
	return nil, fmt.Errorf("moa: cannot restrict %T", r)
}
