package mil

import (
	"fmt"
	"io"

	"mirror/internal/bat"
)

// Env holds the variable bindings a program runs against, in two scopes:
// a read-only base (the stored database's name→BAT map, shared by every
// Env opened over it and never written) and the Env's own bindings
// (parameters bound before Run, intermediates the program assigns), which
// shadow the base. Out receives print() output (defaults to io.Discard).
type Env struct {
	vars map[string]any
	base map[string]*bat.BAT
	Out  io.Writer

	// TopKTheta, when non-nil, is the shared pruning threshold the
	// prunedtopk builtin passes to the physical operator. A scatter-gather
	// engine binds one bat.TopKThreshold into the Env of every shard's
	// program for a query, so a hot shard's k-th best score prunes the
	// cold shards' scans (exactly as a store's segments already share a
	// threshold within one scan). Nil means a private per-call threshold.
	TopKTheta *bat.TopKThreshold
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return NewEnvOver(nil) }

// NewEnvOver returns an environment whose base scope is the given map.
// The map is shared, not copied: the caller must not modify it while any
// Env over it is in use (a published epoch's frozen map never changes; a
// live database hands out a fresh map per structural version).
func NewEnvOver(base map[string]*bat.BAT) *Env {
	return &Env{vars: make(map[string]any), base: base, Out: io.Discard}
}

// Bind sets a variable in the Env's own scope.
func (e *Env) Bind(name string, v any) { e.vars[name] = v }

// Lookup fetches a variable: the Env's own bindings first, then the base.
func (e *Env) Lookup(name string) (any, bool) {
	if v, ok := e.vars[name]; ok {
		return v, true
	}
	if b, ok := e.base[name]; ok {
		return b, true
	}
	return nil, false
}

// BAT fetches a variable and asserts it is a BAT.
func (e *Env) BAT(name string) (*bat.BAT, error) {
	v, ok := e.Lookup(name)
	if !ok {
		return nil, errorf("undefined variable %q", name)
	}
	b, ok := v.(*bat.BAT)
	if !ok {
		return nil, errorf("variable %q is not a BAT (%T)", name, v)
	}
	return b, nil
}

// Fork returns a child environment with a copy of the Env's own bindings
// (and the same shared base), so a program's intermediates do not pollute
// the parent.
func (e *Env) Fork() *Env {
	c := NewEnvOver(e.base)
	c.Out = e.Out
	for k, v := range e.vars {
		c.vars[k] = v
	}
	return c
}

// Run executes the program in env. The value of the last statement is
// returned (result of the final expression or assignment).
func Run(p *Program, env *Env) (any, error) {
	var last any
	for i := range p.Stmts {
		st := &p.Stmts[i]
		v, err := evalExpr(st.Expr, env)
		if err != nil {
			return nil, err
		}
		if st.Var != "" {
			env.vars[st.Var] = v
		}
		last = v
	}
	return last, nil
}

// RunSource parses and executes MIL source text.
func RunSource(src string, env *Env) (any, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Run(p, env)
}

func evalExpr(e Expr, env *Env) (any, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *Ref:
		v, ok := env.Lookup(x.Name)
		if !ok {
			return nil, errorf("undefined variable %q", x.Name)
		}
		return v, nil
	case *Call:
		fn, ok := builtins[x.Fn]
		if !ok {
			return nil, errorf("unknown function %q", x.Fn)
		}
		args, err := evalArgs(x.Args, env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.Fn, err)
		}
		v, err := fn(env, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.Fn, err)
		}
		return v, nil
	case *Pump:
		args, err := evalArgs(x.Args, env)
		if err != nil {
			return nil, err
		}
		return evalPump(x.Agg, args)
	case *Mux:
		args, err := evalArgs(x.Args, env)
		if err != nil {
			return nil, err
		}
		return evalMux(x.Op, args)
	}
	return nil, errorf("bad expression node %T", e)
}

func evalArgs(exprs []Expr, env *Env) ([]any, error) {
	out := make([]any, len(exprs))
	for i, e := range exprs {
		v, err := evalExpr(e, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalPump dispatches {agg}(b) → by-head pump and {agg}(vals, grp) → grouped
// pump.
func evalPump(agg string, args []any) (any, error) {
	kind, err := bat.AggKindFromString(agg)
	if err != nil {
		return nil, err
	}
	switch len(args) {
	case 1:
		b, ok := args[0].(*bat.BAT)
		if !ok {
			return nil, errorf("{%s}: argument must be a BAT, got %T", agg, args[0])
		}
		return bat.PumpByHead(kind, b)
	case 2:
		vals, ok1 := args[0].(*bat.BAT)
		grp, ok2 := args[1].(*bat.BAT)
		if !ok1 || !ok2 {
			return nil, errorf("{%s}: arguments must be BATs", agg)
		}
		return bat.PumpAggregate(kind, vals, grp)
	}
	return nil, errorf("{%s}: want 1 or 2 arguments, got %d", agg, len(args))
}

// evalMux dispatches [op](a), [op](a, b), and scalar/BAT mixes.
func evalMux(op string, args []any) (any, error) {
	switch len(args) {
	case 1:
		b, ok := args[0].(*bat.BAT)
		if !ok {
			return nil, errorf("[%s]: argument must be a BAT, got %T", op, args[0])
		}
		return bat.MultiplexUnary(op, b)
	case 2:
		a, aBAT := args[0].(*bat.BAT)
		b, bBAT := args[1].(*bat.BAT)
		switch {
		case aBAT && bBAT:
			return bat.Multiplex(op, a, b)
		case aBAT:
			return bat.MultiplexConst(op, a, args[1], true)
		case bBAT:
			return bat.MultiplexConst(op, b, args[0], false)
		default:
			return nil, errorf("[%s]: at least one argument must be a BAT", op)
		}
	}
	return nil, errorf("[%s]: want 1 or 2 arguments, got %d", op, len(args))
}
