package mil

import (
	"fmt"
	"sort"

	"mirror/internal/bat"
)

// builtinFn is the signature of a MIL builtin. The environment is passed so
// that print can reach Env.Out.
type builtinFn func(env *Env, args []any) (any, error)

// builtins is the registry of all MIL functions. It is populated in init so
// helper closures can reference each other.
var builtins map[string]builtinFn

func init() {
	builtins = map[string]builtinFn{
		// construction and mutation
		"new":    biNew,
		"insert": biInsert,

		// shape
		"reverse": bat1(func(b *bat.BAT) (any, error) { return b.Reverse(), nil }),
		"mirror":  bat1(func(b *bat.BAT) (any, error) { return b.Mirror(), nil }),
		"mark":    biMark,
		"clone":   bat1(func(b *bat.BAT) (any, error) { return b.Clone(), nil }),
		"number":  bat1(func(b *bat.BAT) (any, error) { return bat.Number(b), nil }),

		// selection
		"select":      biSelect,
		"uselect":     biUSelect,
		"select_not":  biSelectNot,
		"like_select": biLikeSelect,

		// joins and set operations
		"join":       bat2(bat.Join),
		"leftjoin":   bat2(bat.LeftJoin),
		"semijoin":   bat2(bat.SemiJoin),
		"kdiff":      bat2(bat.Diff),
		"kunion":     bat2(bat.Union),
		"kintersect": bat2(bat.Intersect),
		"cross":      bat2(bat.CrossProduct),

		// grouping
		"group":   bat1(func(b *bat.BAT) (any, error) { return bat.Group(b) }),
		"refine":  bat2(bat.GroupRefine),
		"kunique": bat1(func(b *bat.BAT) (any, error) { return bat.Unique(b) }),

		// scalar aggregates
		"sum":   scalarAgg(bat.AggSum),
		"count": scalarAgg(bat.AggCount),
		"min":   scalarAgg(bat.AggMin),
		"max":   scalarAgg(bat.AggMax),
		"avg":   scalarAgg(bat.AggAvg),
		"prod":  scalarAgg(bat.AggProd),

		// ordering
		"tsort":     bat1(func(b *bat.BAT) (any, error) { return bat.TSort(b) }),
		"tsort_rev": bat1(func(b *bat.BAT) (any, error) { return bat.TSortRev(b) }),
		"hsort":     bat1(func(b *bat.BAT) (any, error) { return bat.HSort(b) }),
		"topn":      biTopN,
		"slice":     biSlice,
		"fetch":     biFetch,
		"hfetch":    biHFetch,
		"histogram": bat1(func(b *bat.BAT) (any, error) { return bat.Histogram(b) }),

		// lookup
		"find":   biFind,
		"exists": biExists,

		// probabilistic retrieval operators (the paper's physical extension)
		"getbl":      biGetBL,
		"wsum_bel":   biWSumBel,
		"prunedtopk": biPrunedTopK,

		// I/O
		"print": biPrint,
	}
}

// BuiltinNames lists every registered MIL builtin, sorted. The repo's
// docs test uses it to keep docs/MIL.md complete: adding a builtin
// without documenting it fails CI.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- argument helpers ----

func argBAT(args []any, i int) (*bat.BAT, error) {
	if i >= len(args) {
		return nil, errorf("missing argument %d", i+1)
	}
	b, ok := args[i].(*bat.BAT)
	if !ok {
		return nil, errorf("argument %d must be a BAT, got %T", i+1, args[i])
	}
	return b, nil
}

func argInt(args []any, i int) (int64, error) {
	if i >= len(args) {
		return 0, errorf("missing argument %d", i+1)
	}
	switch v := args[i].(type) {
	case int64:
		return v, nil
	case bat.OID:
		return int64(v), nil
	case float64:
		return int64(v), nil
	}
	return 0, errorf("argument %d must be an int, got %T", i+1, args[i])
}

func argFloat(args []any, i int) (float64, error) {
	if i >= len(args) {
		return 0, errorf("missing argument %d", i+1)
	}
	switch v := args[i].(type) {
	case float64:
		return v, nil
	case int64:
		return float64(v), nil
	}
	return 0, errorf("argument %d must be a float, got %T", i+1, args[i])
}

func argStr(args []any, i int) (string, error) {
	if i >= len(args) {
		return "", errorf("missing argument %d", i+1)
	}
	s, ok := args[i].(string)
	if !ok {
		return "", errorf("argument %d must be a string, got %T", i+1, args[i])
	}
	return s, nil
}

func wantArgs(args []any, n int) error {
	if len(args) != n {
		return errorf("want %d arguments, got %d", n, len(args))
	}
	return nil
}

// bat1 adapts a unary BAT function.
func bat1(f func(*bat.BAT) (any, error)) builtinFn {
	return func(_ *Env, args []any) (any, error) {
		if err := wantArgs(args, 1); err != nil {
			return nil, err
		}
		b, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		return f(b)
	}
}

// bat2 adapts a binary BAT function.
func bat2(f func(a, b *bat.BAT) (*bat.BAT, error)) builtinFn {
	return func(_ *Env, args []any) (any, error) {
		if err := wantArgs(args, 2); err != nil {
			return nil, err
		}
		a, err := argBAT(args, 0)
		if err != nil {
			return nil, err
		}
		b, err := argBAT(args, 1)
		if err != nil {
			return nil, err
		}
		return f(a, b)
	}
}

func scalarAgg(k bat.AggKind) builtinFn {
	return bat1(func(b *bat.BAT) (any, error) { return bat.ScalarAggregate(k, b) })
}

// ---- individual builtins ----

func biNew(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	hs, err := argStr(args, 0)
	if err != nil {
		return nil, err
	}
	ts, err := argStr(args, 1)
	if err != nil {
		return nil, err
	}
	hk, err := bat.KindFromString(hs)
	if err != nil {
		return nil, err
	}
	tk, err := bat.KindFromString(ts)
	if err != nil {
		return nil, err
	}
	return bat.New(hk, tk), nil
}

func biInsert(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	if err := b.Append(args[1], args[2]); err != nil {
		return nil, err
	}
	return b, nil
}

func biMark(_ *Env, args []any) (any, error) {
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	base := int64(0)
	if len(args) > 1 {
		base, err = argInt(args, 1)
		if err != nil {
			return nil, err
		}
	}
	return b.Mark(bat.OID(base)), nil
}

func biSelect(_ *Env, args []any) (any, error) {
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	switch len(args) {
	case 2:
		return bat.Select(b, args[1])
	case 3:
		return bat.SelectRange(b, args[1], args[2])
	}
	return nil, errorf("select: want 2 or 3 arguments, got %d", len(args))
}

func biUSelect(_ *Env, args []any) (any, error) {
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	switch len(args) {
	case 2:
		return bat.USelect(b, args[1])
	case 3:
		return bat.USelectRange(b, args[1], args[2])
	}
	return nil, errorf("uselect: want 2 or 3 arguments, got %d", len(args))
}

func biSelectNot(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	return bat.SelectNot(b, args[1])
}

func biLikeSelect(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	pat, err := argStr(args, 1)
	if err != nil {
		return nil, err
	}
	return bat.LikeSelect(b, pat)
}

func biTopN(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	n, err := argInt(args, 1)
	if err != nil {
		return nil, err
	}
	return bat.TopN(b, int(n))
}

func biSlice(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	lo, err := argInt(args, 1)
	if err != nil {
		return nil, err
	}
	hi, err := argInt(args, 2)
	if err != nil {
		return nil, err
	}
	return b.Slice(int(lo), int(hi))
}

func biFetch(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	i, err := argInt(args, 1)
	if err != nil {
		return nil, err
	}
	_, t, err := b.Fetch(int(i))
	return t, err
}

func biHFetch(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	i, err := argInt(args, 1)
	if err != nil {
		return nil, err
	}
	h, _, err := b.Fetch(int(i))
	return h, err
}

func biFind(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	v, ok := b.Find(args[1])
	if !ok {
		return nil, errorf("find: head value %v not present", args[1])
	}
	return v, nil
}

func biExists(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 2); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	return b.Exists(args[1]), nil
}

// The probabilistic builtins read a CONTREP's postings as one or more
// sources, each written
//
//	query[, weights], nsegs, s0_poststart, s0_blkstart, s0_blkdir,
//	s0_blkdoc, s0_blkbdir, s0_blkbel, s0_maxbel[, s1_poststart, ...]
//
// query is a BAT whose tail holds the query-term OIDs; weights, when
// present, a [_, flt] BAT of per-term weights aligned with them; then the
// segment count and seven block-layout BATs per segment (the
// bat/postcodec.go layout), segments in ascending document order.

// parseSource parses one source starting at args[i] and returns it with
// the index of the first argument after it.
func parseSource(op string, args []any, i, n int) (bat.TopKSource, int, error) {
	var src bat.TopKSource
	qb, err := argBAT(args, i)
	if err != nil {
		return src, 0, err
	}
	i++
	if i < len(args) {
		if wb, ok := args[i].(*bat.BAT); ok {
			if wb.Len() != qb.Len() || wb.Tail.Kind() != bat.KindFloat {
				return src, 0, errorf("%s source %d: weights must be %d flt values, got %d %s", op, n, qb.Len(), wb.Len(), wb.Tail.Kind())
			}
			src.Weights = make([]float64, wb.Len())
			for j := range src.Weights {
				src.Weights[j] = wb.Tail.FloatAt(j)
			}
			i++
		}
	}
	nsegs, err := argInt(args, i)
	if err != nil {
		return src, 0, err
	}
	i++
	if nsegs < 1 || int64(len(args)-i) < 7*nsegs {
		return src, 0, errorf("%s source %d: %d segments need %d BATs, %d args remain", op, n, nsegs, 7*nsegs, len(args)-i)
	}
	src.Segs = make([]bat.PostingsSeg, nsegs)
	for s := range src.Segs {
		var cols [7]*bat.BAT
		for j := range cols {
			if cols[j], err = argBAT(args, i); err != nil {
				return src, 0, err
			}
			i++
		}
		src.Segs[s] = bat.PostingsSeg{
			Start: cols[0], BlkStart: cols[1], BlkDir: cols[2], BlkDoc: cols[3],
			BlkBDir: cols[4], BlkBel: cols[5], MaxBel: cols[6],
		}
	}
	src.Query = make([]bat.OID, qb.Len())
	for j := range src.Query {
		src.Query[j] = qb.Tail.OIDAt(j)
	}
	return src, i, nil
}

// oneSource parses args[i:] as exactly one source, weighted or not as
// weighted says.
func oneSource(op string, args []any, i int, weighted bool) (bat.TopKSource, error) {
	src, end, err := parseSource(op, args, i, 1)
	if err != nil {
		return src, err
	}
	if end != len(args) {
		return src, errorf("%s takes one source, %d args remain after it", op, len(args)-end)
	}
	if (src.Weights != nil) != weighted {
		if weighted {
			return src, errorf("%s: the source needs a weights BAT", op)
		}
		return src, errorf("%s: a weighted source takes wsum_bel", op)
	}
	return src, nil
}

// biGetBL is the MIL surface of the probabilistic physical operator:
//
//	getbl(default, source) → [docOID, score]
//
// the summed beliefs of every document matching a query term, unmatched
// terms at the inference network's default belief.
func biGetBL(_ *Env, args []any) (any, error) {
	def, err := argFloat(args, 0)
	if err != nil {
		return nil, err
	}
	src, err := oneSource("getbl", args, 1, false)
	if err != nil {
		return nil, err
	}
	beliefs, counts, err := bat.GetBL(src.Segs, src.Query)
	if err != nil {
		return nil, err
	}
	return bat.SumBeliefs(beliefs, counts, len(src.Query), def)
}

// biWSumBel: wsum_bel(default, weighted source) → [docOID, score].
func biWSumBel(_ *Env, args []any) (any, error) {
	def, err := argFloat(args, 0)
	if err != nil {
		return nil, err
	}
	src, err := oneSource("wsum_bel", args, 1, true)
	if err != nil {
		return nil, err
	}
	return bat.WSumBeliefs(src.Segs, src.Query, src.Weights, def)
}

// biPrunedTopK is the MIL surface of the pruned ranked-retrieval operator:
//
//	prunedtopk(default, k, domain, div, source_1[, source_2, ...])
//	    → [docOID, score]
//
// Each source is one CONTREP's (bat.PrunedTopK). It evaluates the
// inference-network sum (or, weighted, #wsum) of every source with
// block-max max-score skipping, adds the per-source folds and divides by
// div, and returns only the k best documents, already ordered score
// descending / OID ascending — identical BUN-for-BUN to getbl (resp.
// wsum_bel) + fill per source, the [+] and [/] multiplexes and a full
// descending sort cut at k. A source's segments must partition the
// document space in ascending order (each document's postings entirely
// in one segment — which is how internal/ir publishes them); the
// sources' segmentations need not agree. domain supplies the OIDs of
// documents matching no query term (they score Σ count(query_s)·default
// resp. Σ sum(weights_s)·default, over div, and are merged in when the
// match set cannot fill k).
func biPrunedTopK(env *Env, args []any) (any, error) {
	def, err := argFloat(args, 0)
	if err != nil {
		return nil, err
	}
	k, err := argInt(args, 1)
	if err != nil {
		return nil, err
	}
	domain, err := argBAT(args, 2)
	if err != nil {
		return nil, err
	}
	div, err := argFloat(args, 3)
	if err != nil {
		return nil, err
	}
	var srcs []bat.TopKSource
	for i := 4; i < len(args); {
		src, next, err := parseSource("prunedtopk", args, i, len(srcs)+1)
		if err != nil {
			return nil, err
		}
		srcs, i = append(srcs, src), next
	}
	if len(srcs) == 0 {
		return nil, errorf("prunedtopk expects 4 scalar args plus at least one source, got %d args", len(args))
	}
	return bat.PrunedTopK(srcs, div, def, int(k), domain, env.TopKTheta)
}

func biPrint(env *Env, args []any) (any, error) {
	for i, a := range args {
		if i > 0 {
			fmt.Fprint(env.Out, " ")
		}
		switch v := a.(type) {
		case *bat.BAT:
			fmt.Fprint(env.Out, v.String())
		default:
			fmt.Fprint(env.Out, bat.FormatValue(v))
		}
	}
	fmt.Fprintln(env.Out)
	if len(args) == 1 {
		return args[0], nil
	}
	return nil, nil
}

func init() {
	builtins["fill"] = biFill
	builtins["calc"] = biCalc
}

// biFill: fill(b, domain, v) — see bat.Fill. v is coerced to b's tail kind
// when numeric.
func biFill(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	b, err := argBAT(args, 0)
	if err != nil {
		return nil, err
	}
	domain, err := argBAT(args, 1)
	if err != nil {
		return nil, err
	}
	v := args[2]
	switch b.Tail.Kind() {
	case bat.KindFloat:
		if f, err2 := argFloat(args, 2); err2 == nil {
			v = f
		}
	case bat.KindInt:
		if n, err2 := argInt(args, 2); err2 == nil {
			v = n
		}
	}
	return bat.Fill(b, domain, v)
}

// biCalc: calc(op, a, b) — scalar arithmetic for the few places a MIL
// program needs to combine scalar results (e.g. qlen · defaultBelief).
func biCalc(_ *Env, args []any) (any, error) {
	if err := wantArgs(args, 3); err != nil {
		return nil, err
	}
	op, err := argStr(args, 0)
	if err != nil {
		return nil, err
	}
	a, err := argFloat(args, 1)
	if err != nil {
		return nil, err
	}
	b, err := argFloat(args, 2)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0.0, nil
		}
		return a / b, nil
	case "min":
		if a < b {
			return a, nil
		}
		return b, nil
	case "max":
		if a > b {
			return a, nil
		}
		return b, nil
	}
	return nil, errorf("calc: unknown operator %q", op)
}

func init() {
	builtins["getbl_pairs"] = biGetBLPairs
}

// biGetBLPairs: getbl_pairs(default, domain, source) — the materialising
// per-term belief operator (see bat.GetBLPairs).
func biGetBLPairs(_ *Env, args []any) (any, error) {
	def, err := argFloat(args, 0)
	if err != nil {
		return nil, err
	}
	domain, err := argBAT(args, 1)
	if err != nil {
		return nil, err
	}
	src, err := oneSource("getbl_pairs", args, 2, false)
	if err != nil {
		return nil, err
	}
	return bat.GetBLPairs(src.Segs, src.Query, def, domain)
}
