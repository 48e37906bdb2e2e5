package moa

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// This file is the logical plan layer between the checked Moa AST and MIL:
// Translate builds a Plan from the expression, OptimizePlan runs rule-based
// rewrites over it (map/select fusion, selection pushdown, aggregate
// fusion, top-k pushdown into retrieval), and the lowering pass in
// translate.go emits MIL from the optimised plan. The paper's claim that
// the logical/physical split "provides an excellent basis for algebraic
// query optimization" lives here: rewrites operate on explicit operators
// instead of being fused into a one-shot translator.

// Options control the algebraic rewrites applied before flattening and the
// common-subexpression elimination applied during it. The paper's claim
// that the logical/physical split "provides an excellent basis for
// algebraic query optimization" is exercised by toggling these
// (BenchmarkE7_OptimizerAblation).
type Options struct {
	// FuseMaps rewrites map[f](map[g](S)) into map[f[THIS:=g]](S),
	// eliminating the materialisation of the inner map's result.
	FuseMaps bool
	// FuseAggregates rewrites agg(structfn(args)) into the fused operator a
	// structure registers for it; for CONTREP this turns sum(getBL(...))
	// into the physical getbl operator instead of materialising per-term
	// belief sets.
	FuseAggregates bool
	// FuseSelects rewrites select[p](select[q](S)) into select[p and q](S).
	FuseSelects bool
	// PushSelects rewrites select[p](map[f](S)) into
	// map[f](select[p[THIS:=f]](S)), so the map materialises only the
	// surviving elements.
	PushSelects bool
	// CSE deduplicates identical MIL operations during translation.
	CSE bool
	// TopK > 0 asks for only the K best elements of a set-typed query
	// under the ranked-retrieval order (score descending, OID ascending).
	// When the optimised plan is a retrieval the pruned top-k operator can
	// serve (a full-collection scan scored by a function with a pruned
	// form, e.g. getBLScore), the result comes back already ranked and cut
	// (Result.Ranked); every other plan shape falls back to exhaustive
	// evaluation and the caller's ranking applies the cut — the exact
	// fallback. The externally owned pruning threshold such a scan may
	// share is not an option: it is per call, bound with the parameters
	// (Prepared.Bind).
	TopK int
}

// DefaultOptions enables every optimisation.
var DefaultOptions = Options{FuseMaps: true, FuseAggregates: true, FuseSelects: true, PushSelects: true, CSE: true}

// NoOptimize disables every optimisation (the ablation baseline).
var NoOptimize = Options{}

// Plan is one node of the logical query plan for a set-typed (sub)query.
// Map and select bodies remain Moa expressions — Moa is a comprehension
// algebra, and the element-wise work is what the expression compiler
// flattens — while the set-level structure the optimizer reasons about is
// explicit.
type Plan interface {
	isPlan()
	describe(sb *strings.Builder, indent int)
}

// ScanPlan enumerates a stored collection (the full OID domain).
type ScanPlan struct{ Set string }

// ParamScanPlan enumerates a set-valued query parameter.
type ParamScanPlan struct {
	Name string
	T    *SetType
}

// MapPlan applies Body to every element of Src (map[Body](Src)).
type MapPlan struct {
	Src  Plan
	Body Expr
}

// SelectPlan keeps the elements of Src satisfying Pred.
type SelectPlan struct {
	Src  Plan
	Pred Expr
}

// JoinPlan joins two set plans; E retains the original join expression for
// its predicate and result typing.
type JoinPlan struct {
	Left, Right Plan
	E           *JoinExpr
}

// TopKPlan asks for the K best elements of Src under the ranked-retrieval
// order (score descending, OID ascending). It is introduced at the plan
// root by Options.TopK; when the optimizer cannot push it into a pruned
// retrieval operator it lowers as a no-op and the executor's exhaustive
// ranking applies the cut (the exact fallback).
type TopKPlan struct {
	Src Plan
	K   int
}

// PrunedPlan is the fusion of TopK ∘ Map[score] ∘ Scan, where the score
// is one score call, or a sum of them divided by a positive constant
// (Section 5.2's #sum of annotation and content evidence): the structure
// function's EmitTopK hook emits a single physical operator that
// evaluates the retrieval with upper-bound pruning and returns only the
// ranked top K.
type PrunedPlan struct {
	Src   *ScanPlan
	Body  Expr        // the fused map body (Explain prints it)
	Calls []*CallExpr // the summed score calls, left to right
	Div   float64     // the constant divisor (1 without one)
	Fn    *StructFunc
	K     int
}

func (*ScanPlan) isPlan()      {}
func (*ParamScanPlan) isPlan() {}
func (*MapPlan) isPlan()       {}
func (*SelectPlan) isPlan()    {}
func (*JoinPlan) isPlan()      {}
func (*TopKPlan) isPlan()      {}
func (*PrunedPlan) isPlan()    {}

// BuildPlan turns a checked set-typed expression into the initial
// (unoptimised) plan. The translator supplies parameter and schema
// context.
func (tr *Translator) BuildPlan(e Expr) (Plan, error) {
	switch x := e.(type) {
	case *Ident:
		if slot, ok := tr.slotIdx[x.Name]; ok {
			st, ok := tr.slots[slot].T.(*SetType)
			if !ok {
				return nil, fmt.Errorf("moa: parameter %q is not a set", x.Name)
			}
			return &ParamScanPlan{Name: x.Name, T: st}, nil
		}
		if _, ok := tr.db.Set(x.Name); !ok {
			return nil, fmt.Errorf("moa: unknown set %q", x.Name)
		}
		return &ScanPlan{Set: x.Name}, nil

	case *MapExpr:
		src, err := tr.BuildPlan(x.Src)
		if err != nil {
			return nil, err
		}
		return &MapPlan{Src: src, Body: x.Body}, nil

	case *SelectExpr:
		src, err := tr.BuildPlan(x.Src)
		if err != nil {
			return nil, err
		}
		return &SelectPlan{Src: src, Pred: x.Pred}, nil

	case *JoinExpr:
		left, err := tr.BuildPlan(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := tr.BuildPlan(x.Right)
		if err != nil {
			return nil, err
		}
		return &JoinPlan{Left: left, Right: right, E: x}, nil

	case *CallExpr:
		return nil, fmt.Errorf("moa: set-valued call %q outside map context is not supported", x.Fn)
	}
	return nil, fmt.Errorf("moa: expression %s is not a set", e)
}

// OptimizePlan applies the enabled rewrite rules until fixpoint (bounded so
// pathological rule interactions still terminate).
func OptimizePlan(p Plan, opts Options) Plan {
	for i := 0; i < 20; i++ {
		changed := false
		p = rewritePlan(p, opts, &changed)
		if !changed {
			return p
		}
	}
	return p
}

// rewritePlan runs one bottom-up rewrite pass.
func rewritePlan(p Plan, opts Options, changed *bool) Plan {
	switch n := p.(type) {
	case *MapPlan:
		n.Src = rewritePlan(n.Src, opts, changed)
		if opts.FuseAggregates {
			n.Body = rewriteExprAggs(n.Body, changed)
		}
		// map[f](map[g](S)) → map[f[THIS:=g]](S)
		if opts.FuseMaps {
			if inner, ok := n.Src.(*MapPlan); ok {
				*changed = true
				return &MapPlan{Src: inner.Src, Body: substThis(cloneExpr(n.Body), inner.Body)}
			}
		}
		return n

	case *SelectPlan:
		n.Src = rewritePlan(n.Src, opts, changed)
		if opts.FuseAggregates {
			n.Pred = rewriteExprAggs(n.Pred, changed)
		}
		// select[p](select[q](S)) → select[q and p](S)
		if opts.FuseSelects {
			if inner, ok := n.Src.(*SelectPlan); ok {
				*changed = true
				return &SelectPlan{
					Src:  inner.Src,
					Pred: &BinExpr{Op: "and", L: inner.Pred, R: n.Pred, T: BoolType},
				}
			}
		}
		// selection pushdown: select[p](map[f](S)) → map[f](select[p[THIS:=f]](S)).
		// Valid for any pure element-wise f; the selected sub-domain is
		// identical, and the map then materialises only surviving elements.
		if opts.PushSelects {
			if inner, ok := n.Src.(*MapPlan); ok {
				*changed = true
				pushed := substThis(cloneExpr(n.Pred), cloneExpr(inner.Body))
				return &MapPlan{
					Src:  &SelectPlan{Src: inner.Src, Pred: pushed},
					Body: inner.Body,
				}
			}
		}
		return n

	case *JoinPlan:
		n.Left = rewritePlan(n.Left, opts, changed)
		n.Right = rewritePlan(n.Right, opts, changed)
		return n

	case *TopKPlan:
		n.Src = rewritePlan(n.Src, opts, changed)
		// top-k pushdown: topk(map[(f₁ + … + fₙ) / c](scan S)) → pruned
		// operator, for score calls fᵢ with a pruned form. Only a
		// full-collection scan qualifies: the physical operator's bounds
		// cover the whole posting file, so a restricted domain (selects,
		// joins, nested maps) keeps the exhaustive path.
		if mp, ok := n.Src.(*MapPlan); ok {
			if scan, ok := mp.Src.(*ScanPlan); ok {
				if calls, div, sf, ok := prunedScore(mp.Body); ok {
					*changed = true
					return &PrunedPlan{Src: scan, Body: mp.Body, Calls: calls, Div: div, Fn: sf, K: n.K}
				}
			}
		}
		return n
	}
	return p
}

// prunedScore matches a map body the pruned operator can score: a call
// of a structure function with a pruned form, or a left-deep sum of calls
// of one such function, either optionally divided by a positive numeric
// literal. Left-deep is the fold order the operator reproduces; any
// other shape keeps the exhaustive path.
func prunedScore(body Expr) ([]*CallExpr, float64, *StructFunc, bool) {
	div := 1.0
	if b, ok := body.(*BinExpr); ok && b.Op == "/" {
		lit, ok := b.R.(*LitExpr)
		if !ok {
			return nil, 0, nil, false
		}
		v, ok := numVal(lit.V)
		if !ok || !(v > 0) || math.IsInf(v, 1) {
			return nil, 0, nil, false
		}
		body, div = b.L, v
	}
	var calls []*CallExpr
	for {
		b, ok := body.(*BinExpr)
		if !ok {
			break
		}
		call, ok := b.R.(*CallExpr)
		if b.Op != "+" || !ok {
			return nil, 0, nil, false
		}
		calls = append(calls, call)
		body = b.L
	}
	call, ok := body.(*CallExpr)
	if !ok {
		return nil, 0, nil, false
	}
	calls = append(calls, call)
	slices.Reverse(calls)
	var sf *StructFunc
	for _, c := range calls {
		if len(c.Args) == 0 || c.Fn != calls[0].Fn {
			return nil, 0, nil, false
		}
		f, ok := lookupStructFunc(c.Fn, c.Args[0].Type())
		if !ok || f.EmitTopK == nil {
			return nil, 0, nil, false
		}
		if sf == nil {
			sf = f
		}
	}
	return calls, div, sf, true
}

// rewriteExprAggs applies the aggregate-fusion rule inside a map body or
// predicate: agg(structfn(args)) becomes the fused function the structure
// registered (for CONTREP, sum∘getBL → getBLScore).
func rewriteExprAggs(e Expr, changed *bool) Expr {
	return walkRewrite(e, func(n Expr) Expr {
		if r, ok := fuseAggNode(n); ok {
			*changed = true
			return r
		}
		return n
	})
}

// fuseAggNode matches one agg(structfn(...)) call.
func fuseAggNode(n Expr) (Expr, bool) {
	x, ok := n.(*CallExpr)
	if !ok || len(x.Args) != 1 {
		return nil, false
	}
	innerCall, ok := x.Args[0].(*CallExpr)
	if !ok || len(innerCall.Args) == 0 {
		return nil, false
	}
	sf, ok := lookupStructFunc(innerCall.Fn, innerCall.Args[0].Type())
	if !ok || sf.FuseAgg == nil {
		return nil, false
	}
	fused, ok := sf.FuseAgg[x.Fn]
	if !ok {
		return nil, false
	}
	return &CallExpr{Fn: fused, Args: innerCall.Args, T: x.T}, true
}

// PlanString renders a plan as an indented operator tree (tests and the
// shell's explain output).
func PlanString(p Plan) string {
	var sb strings.Builder
	p.describe(&sb, 0)
	return sb.String()
}

func ind(sb *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		sb.WriteString("  ")
	}
}

func (n *ScanPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "scan %s\n", n.Set)
}

func (n *ParamScanPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "param %s\n", n.Name)
}

func (n *MapPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "map [%s]\n", n.Body)
	n.Src.describe(sb, d+1)
}

func (n *SelectPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "select [%s]\n", n.Pred)
	n.Src.describe(sb, d+1)
}

func (n *JoinPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "join [%s]\n", n.E.Pred)
	n.Left.describe(sb, d+1)
	n.Right.describe(sb, d+1)
}

func (n *TopKPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "topk %d (exhaustive fallback)\n", n.K)
	n.Src.describe(sb, d+1)
}

func (n *PrunedPlan) describe(sb *strings.Builder, d int) {
	ind(sb, d)
	fmt.Fprintf(sb, "pruned-topk %d [%s]\n", n.K, n.Body)
	n.Src.describe(sb, d+1)
}

// substThis replaces every THIS in e (that refers to the current map level)
// with repl. Nested map/select bodies introduce a fresh THIS and are left
// alone below their boundary.
func substThis(e Expr, repl Expr) Expr {
	switch x := e.(type) {
	case *This:
		return repl
	case *Field:
		x.Recv = substThis(x.Recv, repl)
	case *CallExpr:
		for i := range x.Args {
			x.Args[i] = substThis(x.Args[i], repl)
		}
	case *BinExpr:
		x.L = substThis(x.L, repl)
		x.R = substThis(x.R, repl)
	case *UnExpr:
		x.E = substThis(x.E, repl)
	case *TupleExpr:
		for i := range x.Elems {
			x.Elems[i] = substThis(x.Elems[i], repl)
		}
	case *MapExpr:
		// THIS inside the nested body refers to the nested element; only the
		// source is in the current scope.
		x.Src = substThis(x.Src, repl)
	case *SelectExpr:
		x.Src = substThis(x.Src, repl)
	case *JoinExpr:
		x.Left = substThis(x.Left, repl)
		x.Right = substThis(x.Right, repl)
	}
	return e
}

// cloneExpr deep-copies an expression tree (types are shared; they are
// immutable).
func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *This:
		c := *x
		return &c
	case *Ident:
		c := *x
		return &c
	case *LitExpr:
		c := *x
		return &c
	case *Field:
		return &Field{Recv: cloneExpr(x.Recv), Name: x.Name, T: x.T}
	case *MapExpr:
		return &MapExpr{Body: cloneExpr(x.Body), Src: cloneExpr(x.Src), T: x.T}
	case *SelectExpr:
		return &SelectExpr{Pred: cloneExpr(x.Pred), Src: cloneExpr(x.Src), T: x.T}
	case *JoinExpr:
		return &JoinExpr{Pred: cloneExpr(x.Pred), Left: cloneExpr(x.Left), Right: cloneExpr(x.Right), T: x.T}
	case *CallExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = cloneExpr(a)
		}
		return &CallExpr{Fn: x.Fn, Args: args, T: x.T}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R), T: x.T}
	case *UnExpr:
		return &UnExpr{Op: x.Op, E: cloneExpr(x.E), T: x.T}
	case *TupleExpr:
		elems := make([]Expr, len(x.Elems))
		for i, a := range x.Elems {
			elems[i] = cloneExpr(a)
		}
		return &TupleExpr{Names: append([]string(nil), x.Names...), Elems: elems, T: x.T}
	}
	panic(fmt.Sprintf("moa: cloneExpr: unknown node %T", e))
}
