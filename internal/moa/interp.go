package moa

import (
	"fmt"
	"math"

	"mirror/internal/bat"
)

// Interp is the tuple-at-a-time evaluator of the Moa algebra: it
// materialises collections into Go values and applies map/select bodies one
// element at a time, the way a navigational OO-DBMS executes queries. It is
// the baseline of the [BWK98] flattening-vs-interpretation comparison
// (BenchmarkE4_FlattenedVsTupleAtATime) and the semantic oracle the
// flattened executor is differentially tested against.
type Interp struct {
	DB        *Database
	Params    map[string]Param
	setsCache map[string][]Row
}

// NewInterp returns an interpreter over db with the given parameters.
func NewInterp(db *Database, params map[string]Param) *Interp {
	return &Interp{DB: db, Params: params, setsCache: map[string][]Row{}}
}

// Query parses, checks and evaluates a query tuple-at-a-time.
func (ip *Interp) Query(src string) (*Result, error) {
	expr, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	ptypes := make(map[string]Type, len(ip.Params))
	for k, p := range ip.Params {
		ptypes[k] = p.T
	}
	t, err := Check(expr, &CheckEnv{DB: ip.DB, Params: ptypes})
	if err != nil {
		return nil, err
	}
	return ip.Eval(expr, t)
}

// Eval evaluates a checked expression.
func (ip *Interp) Eval(expr Expr, t Type) (*Result, error) {
	v, err := ip.eval(expr, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{T: t}
	if rows, ok := v.([]Row); ok {
		res.Rows = rows
		return res, nil
	}
	res.Scalar = v
	return res, nil
}

// eval returns []Row for set expressions and a scalar Go value otherwise.
// thisVal carries the current element's value inside map/select bodies.
func (ip *Interp) eval(e Expr, thisVal any) (any, error) {
	switch x := e.(type) {
	case *This:
		if thisVal == nil {
			return nil, fmt.Errorf("moa: THIS unbound")
		}
		return thisVal, nil

	case *LitExpr:
		return x.V, nil

	case *Ident:
		if p, ok := ip.Params[x.Name]; ok {
			if st, ok := p.T.(*SetType); ok {
				items, err := paramItems(p.V)
				if err != nil {
					return nil, err
				}
				at, _ := st.Elem.(*AtomType)
				rows := make([]Row, len(items))
				for i, item := range items {
					if at != nil {
						item = coerceAtom(at, item)
					}
					rows[i] = Row{OID: bat.OID(i), Value: item}
				}
				return rows, nil
			}
			return p.V, nil
		}
		if _, ok := ip.DB.Set(x.Name); ok {
			return ip.materializeSet(x.Name)
		}
		return nil, fmt.Errorf("moa: unknown name %q", x.Name)

	case *Field:
		recv, err := ip.eval(x.Recv, thisVal)
		if err != nil {
			return nil, err
		}
		tv, ok := recv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("moa: field access on %T", recv)
		}
		return tv[x.Name], nil

	case *MapExpr:
		src, err := ip.evalSet(x.Src, thisVal)
		if err != nil {
			return nil, err
		}
		out := make([]Row, len(src))
		for i, row := range src {
			v, err := ip.eval(x.Body, row.Value)
			if err != nil {
				return nil, err
			}
			out[i] = Row{OID: row.OID, Value: v}
		}
		return out, nil

	case *SelectExpr:
		src, err := ip.evalSet(x.Src, thisVal)
		if err != nil {
			return nil, err
		}
		out := make([]Row, 0, len(src))
		for _, row := range src {
			v, err := ip.eval(x.Pred, row.Value)
			if err != nil {
				return nil, err
			}
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("moa: select predicate returned %T", v)
			}
			if b {
				out = append(out, row)
			}
		}
		return out, nil

	case *JoinExpr:
		return ip.evalJoin(x, thisVal)

	case *CallExpr:
		return ip.evalCall(x, thisVal)

	case *BinExpr:
		l, err := ip.eval(x.L, thisVal)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(x.R, thisVal)
		if err != nil {
			return nil, err
		}
		return evalBinScalar(x.Op, l, r)

	case *UnExpr:
		v, err := ip.eval(x.E, thisVal)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("moa: not on %T", v)
			}
			return !b, nil
		case "-":
			f, ok := numVal(v)
			if !ok {
				return nil, fmt.Errorf("moa: unary - on %T", v)
			}
			if _, isInt := v.(int64); isInt {
				return int64(-f), nil
			}
			return -f, nil
		}
		return nil, fmt.Errorf("moa: unknown unary %q", x.Op)

	case *TupleExpr:
		out := make(map[string]any, len(x.Names))
		for i := range x.Names {
			v, err := ip.eval(x.Elems[i], thisVal)
			if err != nil {
				return nil, err
			}
			out[x.Names[i]] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("moa: interpreter cannot evaluate %T", e)
}

// evalSet evaluates an expression that must yield a set of rows.
func (ip *Interp) evalSet(e Expr, thisVal any) ([]Row, error) {
	v, err := ip.eval(e, thisVal)
	if err != nil {
		return nil, err
	}
	switch rows := v.(type) {
	case []Row:
		return rows, nil
	case []any: // nested set value: synthesise positional OIDs
		out := make([]Row, len(rows))
		for i, item := range rows {
			out[i] = Row{OID: bat.OID(i), Value: item}
		}
		return out, nil
	}
	return nil, fmt.Errorf("moa: expected a set, got %T", v)
}

func (ip *Interp) evalJoin(x *JoinExpr, thisVal any) (any, error) {
	left, err := ip.evalSet(x.Left, thisVal)
	if err != nil {
		return nil, err
	}
	right, err := ip.evalSet(x.Right, thisVal)
	if err != nil {
		return nil, err
	}
	eqs := collectJoinEqs(x.Pred)
	out := make([]Row, 0)
	next := bat.OID(0)
	for _, lr := range left {
		lt := lr.Value.(map[string]any)
		for _, rr := range right {
			rt := rr.Value.(map[string]any)
			match := true
			for _, eq := range eqs {
				if !scalarEqual(lt[eq.lfield], rt[eq.rfield]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			merged := make(map[string]any, len(lt)+len(rt))
			for k, v := range lt {
				merged[k] = v
			}
			for k, v := range rt {
				merged[k] = v
			}
			out = append(out, Row{OID: next, Value: merged})
			next++
		}
	}
	return out, nil
}

func (ip *Interp) evalCall(x *CallExpr, thisVal any) (any, error) {
	// Structure function?
	if len(x.Args) > 0 {
		if sf, ok := lookupStructFunc(x.Fn, x.Args[0].Type()); ok {
			recv, err := ip.eval(x.Args[0], thisVal)
			if err != nil {
				return nil, err
			}
			extra := make([]any, 0, len(x.Args)-1)
			for _, a := range x.Args[1:] {
				v, err := ip.eval(a, thisVal)
				if err != nil {
					return nil, err
				}
				extra = append(extra, v)
			}
			return sf.EvalTuple(ip, recv, extra)
		}
	}
	if kernelAggs[x.Fn] {
		rows, err := ip.evalSet(x.Args[0], thisVal)
		if err != nil {
			return nil, err
		}
		return evalAgg(x.Fn, rows, x.T)
	}
	if kernelScalarFns[x.Fn] {
		v, err := ip.eval(x.Args[0], thisVal)
		if err != nil {
			return nil, err
		}
		f, ok := numVal(v)
		if !ok {
			return nil, fmt.Errorf("moa: %s on %T", x.Fn, v)
		}
		switch x.Fn {
		case "log":
			return math.Log(f), nil
		case "exp":
			return math.Exp(f), nil
		case "sqrt":
			return math.Sqrt(f), nil
		case "abs":
			return math.Abs(f), nil
		}
	}
	return nil, fmt.Errorf("moa: unknown function %q", x.Fn)
}

func evalAgg(fn string, rows []Row, t Type) (any, error) {
	if fn == "count" {
		return int64(len(rows)), nil
	}
	if len(rows) == 0 {
		switch fn {
		case "sum":
			if t.Equal(IntType) {
				return int64(0), nil
			}
			return 0.0, nil
		case "avg":
			return 0.0, nil
		}
		return nil, nil // min/max of empty set: absent
	}
	sum := 0.0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		f, ok := numVal(r.Value)
		if !ok {
			return nil, fmt.Errorf("moa: %s over non-numeric element %T", fn, r.Value)
		}
		sum += f
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	asT := func(v float64) any {
		if t.Equal(IntType) {
			return int64(v)
		}
		return v
	}
	switch fn {
	case "sum":
		return asT(sum), nil
	case "min":
		return asT(mn), nil
	case "max":
		return asT(mx), nil
	case "avg":
		return sum / float64(len(rows)), nil
	}
	return nil, fmt.Errorf("moa: unknown aggregate %q", fn)
}

func evalBinScalar(op string, l, r any) (any, error) {
	if op == "and" || op == "or" {
		lb, lok := l.(bool)
		rb, rok := r.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("moa: %s on %T,%T", op, l, r)
		}
		if op == "and" {
			return lb && rb, nil
		}
		return lb || rb, nil
	}
	lf, lNum := numVal(l)
	rf, rNum := numVal(r)
	if lNum && rNum {
		switch op {
		case "+":
			return arithResult(l, r, lf+rf), nil
		case "-":
			return arithResult(l, r, lf-rf), nil
		case "*":
			return arithResult(l, r, lf*rf), nil
		case "/":
			if rf == 0 {
				return 0.0, nil
			}
			return lf / rf, nil
		case "=":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		}
	}
	ls, lStr := l.(string)
	rs, rStr := r.(string)
	if lStr && rStr {
		switch op {
		case "+":
			return ls + rs, nil
		case "=":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		}
	}
	lb, lBool := l.(bool)
	rb, rBool := r.(bool)
	if lBool && rBool {
		switch op {
		case "=":
			return lb == rb, nil
		case "!=":
			return lb != rb, nil
		}
	}
	return nil, fmt.Errorf("moa: operator %q on %T and %T", op, l, r)
}

func arithResult(l, r any, v float64) any {
	_, li := l.(int64)
	_, ri := r.(int64)
	if li && ri {
		return int64(v)
	}
	return v
}

func scalarEqual(l, r any) bool {
	eq, err := evalBinScalar("=", l, r)
	if err != nil {
		return false
	}
	b, _ := eq.(bool)
	return b
}

// materializeSet loads a stored collection into rows (cached).
func (ip *Interp) materializeSet(name string) ([]Row, error) {
	if rows, ok := ip.setsCache[name]; ok {
		return rows, nil
	}
	def, _ := ip.DB.Set(name)
	elem := def.Type.(*SetType).Elem
	m := &materializer{db: ip.DB, env: nil, assocIdx: map[string]map[bat.OID][]bat.OID{}}
	ids, ok := ip.DB.BAT(name + "__id")
	if !ok {
		return nil, fmt.Errorf("moa: missing identity BAT for %q", name)
	}
	rows := make([]Row, 0, ids.Len())
	for i := 0; i < ids.Len(); i++ {
		oid := ids.Head.OIDAt(i)
		v, err := m.storedValue(name, elem, oid)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{OID: oid, Value: v})
	}
	ip.setsCache[name] = rows
	return rows, nil
}
