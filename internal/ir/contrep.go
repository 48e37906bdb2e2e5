package ir

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mirror/internal/bat"
	"mirror/internal/mil"
	"mirror/internal/moa"
)

// Contrep is the CONTREP Moa structure of Section 3: a content
// representation indexed under the inference network retrieval model. A
// CONTREP<T> field decomposes into posting triples plus dictionary and
// statistics columns:
//
//	prefix_term  [pair(void), termOID]   postings: term of pair
//	prefix_doc   [pair(void), ownerOID]  postings: owning element
//	prefix_tf    [pair(void), int]       postings: term frequency
//	prefix_dict  [termOID(void), str]    dictionary
//	prefix_df    [termOID(void), int]    document frequency (derived)
//	prefix_dlen  [ownerOID, int]         document length
//	prefix_stats [void, flt]             N, avgdl, defaultBelief, |dict|
//	prefix_dictrev                       reverse view of _dict (derived):
//	                                     query strings join it to term OIDs
//	prefix_poststart [termOID(void),int] term-ordered postings offsets
//	                                     (derived), nterms+1 entries
//	prefix_blk…                          the postings re-sorted by (term,
//	                                     doc) with their tfs and beliefs,
//	                                     block-compressed: _blkstart,
//	                                     _blkdir, _blkdoc, _blkbdir,
//	                                     _blkbel (derived; codec.go)
//	prefix_maxbel   [termOID(void), flt] per-term maximum belief — the
//	                                     upper bound driving max-score
//	                                     pruned top-k retrieval
//
// The term-ordered columns exist once per index segment (segment.go);
// slot 0 carries the names above. They are the only copy of the beliefs:
// the pruned and the exhaustive operators both read them.
//
// The structure registers the query functions getBL (per-term beliefs, the
// paper's operator) and getBLScore (the sum∘getBL fusion target, which
// also carries the pruned top-k emitter the plan optimizer fuses
// topk∘sum∘getBL into).
type Contrep struct{}

// ContrepValue is the materialised logical value of a CONTREP field: the
// beliefs of the terms occurring in one element.
type ContrepValue struct {
	Prefix  string
	Beliefs map[string]float64
}

func init() { moa.RegisterStructure(&Contrep{}) }

// Name implements moa.Structure.
func (*Contrep) Name() string { return "CONTREP" }

// CheckParams accepts exactly one atomic type parameter with a string
// physical kind (Text, Image, str, URL).
func (*Contrep) CheckParams(params []moa.Type) error {
	if len(params) != 1 {
		return fmt.Errorf("moa: CONTREP takes one type parameter, got %d", len(params))
	}
	at, ok := params[0].(*moa.AtomType)
	if !ok || at.Kind != bat.KindStr {
		return fmt.Errorf("moa: CONTREP parameter must be a text-like atom, got %s", params[0])
	}
	return nil
}

// Columns implements moa.Structure.
func (*Contrep) Columns(prefix string) []moa.ColumnSpec {
	return []moa.ColumnSpec{
		{Suffix: "_term", HeadKind: bat.KindVoid, TailKind: bat.KindOID},
		{Suffix: "_doc", HeadKind: bat.KindVoid, TailKind: bat.KindOID},
		{Suffix: "_tf", HeadKind: bat.KindVoid, TailKind: bat.KindInt},
		{Suffix: "_dict", HeadKind: bat.KindVoid, TailKind: bat.KindStr},
		{Suffix: "_df", HeadKind: bat.KindVoid, TailKind: bat.KindInt},
		{Suffix: "_dlen", HeadKind: bat.KindOID, TailKind: bat.KindInt},
		{Suffix: "_stats", HeadKind: bat.KindVoid, TailKind: bat.KindFloat},
	}
}

// ---- dictionary and posting caches ----

type cacheKey struct {
	db     *moa.Database
	prefix string
}

var (
	dictMu    sync.Mutex
	dictCache = map[cacheKey]map[string]bat.OID{}
)

// dictIndex returns (building or refreshing as needed) the in-memory
// term→OID index for a CONTREP's dictionary. locked indicates the caller
// runs inside a Structure hook and the database write lock is already held.
func dictIndex(db *moa.Database, prefix string, locked bool) (map[string]bat.OID, error) {
	dictMu.Lock()
	defer dictMu.Unlock()
	key := cacheKey{db, prefix}
	get := db.BAT
	if locked {
		get = db.BATL
	}
	dict, ok := get(prefix + "_dict")
	if !ok {
		return nil, fmt.Errorf("ir: missing dictionary BAT %s_dict", prefix)
	}
	idx := dictCache[key]
	if idx == nil || len(idx) != dict.Len() {
		idx = make(map[string]bat.OID, dict.Len())
		for i := 0; i < dict.Len(); i++ {
			idx[dict.Tail.StrAt(i)] = dict.Head.OIDAt(i)
		}
		dictCache[key] = idx
	}
	return idx, nil
}

// ReleaseDBCaches drops the package-level dictionary cache entries keyed
// by the given database. Epoch-based serving (internal/core)
// creates a fresh snapshot database per index publish; releasing the
// superseded snapshot's cache entries keeps the package registries from
// pinning one database per epoch for the process lifetime.
func ReleaseDBCaches(db *moa.Database) {
	dictMu.Lock()
	for k := range dictCache {
		if k.db == db {
			delete(dictCache, k)
		}
	}
	dictMu.Unlock()
}

// Prepare implements moa.Structure: a CONTREP column is one term list
// per row — [][]string of pre-analysed terms (cluster "words" in the
// image pipeline, or already analysed text), []string of raw texts,
// which Analyze tokenises here, or []any rows each holding a text, a
// []string or a []any of strings. Beliefs are recomputed by Finalize.
func (c *Contrep) Prepare(col any) (any, int, error) {
	switch x := col.(type) {
	case [][]string:
		return x, len(x), nil
	case []string:
		out := make([][]string, len(x))
		for i, text := range x {
			out[i] = Analyze(text)
		}
		return out, len(x), nil
	case []any:
		out := make([][]string, len(x))
		for i, v := range x {
			switch y := v.(type) {
			case string:
				out[i] = Analyze(y)
			case []string:
				out[i] = y
			case []any:
				terms := make([]string, len(y))
				for j, item := range y {
					s, ok := item.(string)
					if !ok {
						return nil, 0, fmt.Errorf("ir: CONTREP value list must contain strings, got %T", item)
					}
					terms[j] = s
				}
				out[i] = terms
			default:
				return nil, 0, fmt.Errorf("ir: CONTREP value must be string or []string, got %T", v)
			}
		}
		return out, len(x), nil
	}
	return nil, 0, fmt.Errorf("ir: CONTREP column must be [][]string, []string or []any, got %T", col)
}

// Insert implements moa.Structure: it indexes the prepared term lists of
// documents first, first+1, … set-at-a-time. Each document's term
// frequencies are counted over a sorted copy of its terms, so its
// postings come out in term order, and new terms join the dictionary
// document by document in that order, as one insert per document added
// them; every column then grows with one bulk append. Beliefs are
// derived by Finalize/RefinalizeSegments.
func (c *Contrep) Insert(db *moa.Database, prefix string, first bat.OID, prepared any) error {
	docs := prepared.([][]string)
	idx, err := dictIndex(db, prefix, true)
	if err != nil {
		return err
	}
	dict := mustBATL(db, prefix+"_dict")
	termB := mustBATL(db, prefix+"_term")
	nterms := dict.Len()
	tokens := 0
	for _, doc := range docs {
		tokens += len(doc)
	}
	var newTerms []string
	terms := make([]bat.OID, 0, tokens) // a posting per distinct term: at most one per token
	owners := make([]bat.OID, 0, tokens)
	tfs := make([]int64, 0, tokens)
	dlens := make([]int64, 0, len(docs))
	var sorted []string
	for i, doc := range docs {
		sorted = append(sorted[:0], doc...)
		slices.Sort(sorted)
		for lo := 0; lo < len(sorted); {
			hi := lo + 1
			for hi < len(sorted) && sorted[hi] == sorted[lo] {
				hi++
			}
			w := sorted[lo]
			toid, known := idx[w]
			if !known {
				toid = bat.OID(nterms + len(newTerms))
				newTerms = append(newTerms, w)
				idx[w] = toid
			}
			terms = append(terms, toid)
			owners = append(owners, first+bat.OID(i))
			tfs = append(tfs, int64(hi-lo))
			lo = hi
		}
		dlens = append(dlens, int64(len(doc)))
	}
	pairs := bat.NewVoid(bat.OID(termB.Len()), len(terms))
	for _, a := range []struct {
		suffix string
		h, t   *bat.Column
	}{
		{"_dict", bat.NewVoid(bat.OID(nterms), len(newTerms)), bat.ColumnOfStrs(newTerms)},
		{"_term", pairs, bat.ColumnOfOIDs(terms)},
		{"_doc", pairs, bat.ColumnOfOIDs(owners)},
		{"_tf", pairs, bat.ColumnOfInts(tfs)},
		{"_dlen", bat.NewVoid(first, len(docs)), bat.ColumnOfInts(dlens)},
	} {
		if err := mustBATL(db, prefix+a.suffix).AppendColumns(a.h, a.t); err != nil {
			return err
		}
	}
	return nil
}

// Finalize implements moa.Structure: it rebuilds the derived
// representation — document frequencies, collection statistics, the
// reversed dictionary, and the term-ordered postings with their beliefs
// and per-term max-belief bounds — as a SINGLE index segment
// (segment.go). A batch build is exactly the degenerate case of the
// segmented layout, which is what makes the incremental path (delta
// AppendSegment + RefinalizeSegments, compacted by MergeSegments)
// provably equivalent: both run the same derivation code over the same
// raw columns, honouring a registered GlobalStats override either way.
// Any delta segments a previous incremental run left behind are dropped —
// a full Finalize is the explicit "re-derive everything" operation.
func (c *Contrep) Finalize(db *moa.Database, prefix string) error {
	a := accessLocked(db)
	dropSegments(a, prefix)
	writeSegDir(a, prefix, &segDir{})
	if _, err := appendSegment(a, prefix); err != nil {
		return err
	}
	return refinalizeSegments(a, prefix, globalStatsFor(db, prefix))
}

// adoptDense wraps an adopted tail column as a [void, tail] BAT.
func adoptDense(tail *bat.Column) *bat.BAT {
	b := &bat.BAT{Head: bat.NewVoid(0, tail.Len()), Tail: tail}
	b.HSorted, b.HKey = true, true
	return b
}

// Materialize implements moa.Structure: the beliefs of owner's terms.
// Each is recomputed from the stored tf and document length under the
// _df/_stats the same refinalize wrote beside the segments' beliefs, by
// the same arithmetic (beliefCalc.belief), so it equals the segment's
// value bit for bit.
func (c *Contrep) Materialize(db *moa.Database, prefix string, owner bat.OID) (any, error) {
	st, err := ReadStats(db, prefix)
	if err != nil {
		return nil, err
	}
	termB := mustBAT(db, prefix+"_term")
	docB := mustBAT(db, prefix+"_doc")
	tfB := mustBAT(db, prefix+"_tf")
	dfB := mustBAT(db, prefix+"_df")
	dict := mustBAT(db, prefix+"_dict")
	dl, ok := mustBAT(db, prefix+"_dlen").Find(owner)
	if !ok {
		return nil, fmt.Errorf("ir: %s has no document %d", prefix, owner)
	}
	norm := lenNorm(int(dl.(int64)), st.AvgDocLen)
	// Insert appends documents in ascending OID order, so _doc ascends
	// and owner's postings are one run.
	n := docB.Len()
	lo := sort.Search(n, func(i int) bool { return docB.Tail.OIDAt(i) >= owner })
	out := &ContrepValue{Prefix: prefix, Beliefs: map[string]float64{}}
	for p := lo; p < n && docB.Tail.OIDAt(p) == owner; p++ {
		t := int(termB.Tail.OIDAt(p))
		b := DefaultBelief
		if t < dfB.Len() {
			if idf, ok := termIDF(int(dfB.Tail.IntAt(t)), st.N); ok {
				b = tfBelief(int(tfB.Tail.IntAt(p)), norm, idf)
			}
		}
		out.Beliefs[dict.Tail.StrAt(t)] = b
	}
	return out, nil
}

// ReadStats decodes the statistics column of a CONTREP field.
func ReadStats(db *moa.Database, prefix string) (*Stats, error) {
	b, ok := db.BAT(prefix + "_stats")
	if !ok || b.Len() < 4 {
		return nil, fmt.Errorf("ir: %s has no statistics (run Finalize)", prefix)
	}
	return &Stats{
		N:             int(b.Tail.FloatAt(0)),
		AvgDocLen:     b.Tail.FloatAt(1),
		DefaultBelief: b.Tail.FloatAt(2),
		Terms:         int(b.Tail.FloatAt(3)),
	}, nil
}

func mustBAT(db *moa.Database, name string) *bat.BAT {
	b, ok := db.BAT(name)
	if !ok {
		panic("ir: missing CONTREP column " + name)
	}
	return b
}

// mustBATL is mustBAT for Structure hooks holding the database lock.
func mustBATL(db *moa.Database, name string) *bat.BAT {
	b, ok := db.BATL(name)
	if !ok {
		panic("ir: missing CONTREP column " + name)
	}
	return b
}

// ---- query functions ----

// Functions implements moa.Structure: getBL and its aggregate fusions.
func (c *Contrep) Functions() map[string]*moa.StructFunc {
	return map[string]*moa.StructFunc{
		"getBL": {
			Check:     checkGetBL(&moa.SetType{Elem: moa.FloatType}),
			EmitMap:   emitGetBLPairs,
			EvalTuple: evalGetBL,
			FuseAgg:   map[string]string{"sum": "getBLScore"},
		},
		"getBLScore": {
			Check:     checkGetBL(moa.FloatType),
			EmitMap:   emitGetBLScore,
			EvalTuple: evalGetBLScore,
			EmitTopK:  emitGetBLScoreTopK,
		},
	}
}

// WeightedTermsType is the type of a weighted getBL query: the #wsum
// form of the paper's query, whose terms each carry a weight (relevance
// feedback's weighted cluster words). Bind it with WeightedTermsParam.
var WeightedTermsType = &moa.SetType{Elem: &moa.TupleType{
	Names: []string{"term", "weight"},
	Types: []moa.Type{moa.StrType, moa.FloatType},
}}

// checkGetBL validates getBL(contrep, query, stats): query is a set of
// terms or a weighted set of terms.
func checkGetBL(result moa.Type) func(args []moa.Type) (moa.Type, error) {
	return func(args []moa.Type) (moa.Type, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("moa: getBL takes (contrep, query, stats), got %d args", len(args))
		}
		st, ok := args[1].(*moa.SetType)
		if !ok {
			return nil, fmt.Errorf("moa: getBL query must be a set of terms, got %s", args[1])
		}
		at, ok := st.Elem.(*moa.AtomType)
		if st.Equal(WeightedTermsType) {
			at, ok = moa.StrType, true
		}
		if !ok || at.Kind != bat.KindStr {
			return nil, fmt.Errorf("moa: getBL query elements must be strings or (string, flt weight) pairs, got %s", st.Elem)
		}
		if !args[2].Equal(moa.StatsType) {
			return nil, fmt.Errorf("moa: getBL third argument must be stats, got %s", args[2])
		}
		return result, nil
	}
}

// queryTermsVar emits the translation of the query parameter into term
// OIDs: join the query strings with the reversed dictionary. A weighted
// query also yields its weights restricted to the same surviving terms
// (w, aligned with q; "" for a plain query): an out-of-dictionary term
// drops with its weight.
func queryTermsVar(tr *moa.Translator, prefix string, query moa.Rep) (q, w string, err error) {
	ps, ok := query.(*moa.ParamSetRep)
	if !ok {
		return "", "", fmt.Errorf("moa: getBL query must be a bound set parameter, got %T", query)
	}
	q = tr.Emit("q", mil.C("join", mil.R(ps.ValsVar), mil.R(prefix+"_dictrev")))
	if ps.WeightsVar != "" {
		w = tr.Emit("qw", mil.C("semijoin", mil.R(ps.WeightsVar), mil.R(q)))
	}
	return q, w, nil
}

// segOperands is the operand tail of every probabilistic builtin for one
// CONTREP: its segment count, then the seven block-layout columns of each
// segment. Incremental indexing splits the derived representation into
// segments — slot 0 keeps the canonical names, delta slots are suffixed
// _seg<s> — so the list is whatever this database (a published epoch
// snapshot) holds. A CONTREP that was never finalized has no segments,
// and so no postings form at all.
func segOperands(tr *moa.Translator, prefix string) ([]mil.Expr, error) {
	n := 0
	for n == 0 || tr.HasBAT(SegColumn(prefix, n, "_poststart")) {
		for _, suffix := range blockSegSuffixes {
			if !tr.HasBAT(SegColumn(prefix, n, suffix)) {
				return nil, fmt.Errorf("moa: %s has no postings segment %d (not finalized, or a half-published slot)", prefix, n)
			}
		}
		n++
	}
	ops := []mil.Expr{mil.L(int64(n))}
	for s := 0; s < n; s++ {
		for _, suffix := range blockSegSuffixes {
			ops = append(ops, mil.R(SegColumn(prefix, s, suffix)))
		}
	}
	return ops, nil
}

// emitGetBLPairs is the unfused flattening: it materialises one belief per
// (element, query term) — including defaults — as a nested SET<flt>.
func emitGetBLPairs(tr *moa.Translator, ctx *moa.Ctx, recv moa.Rep, extra []moa.Rep) (moa.Rep, error) {
	sr, ok := recv.(*moa.StructRep)
	if !ok {
		return nil, fmt.Errorf("moa: getBL receiver must be a CONTREP field, got %T", recv)
	}
	if len(extra) != 2 {
		return nil, fmt.Errorf("moa: getBL needs query and stats arguments")
	}
	q, w, err := queryTermsVar(tr, sr.Prefix, extra[0])
	if err != nil {
		return nil, err
	}
	if w != "" {
		return nil, fmt.Errorf("moa: a weighted getBL query is only defined under sum (enable aggregate fusion)")
	}
	segs, err := segOperands(tr, sr.Prefix)
	if err != nil {
		return nil, err
	}
	pairs := tr.Emit("blp", mil.C("getbl_pairs",
		append([]mil.Expr{mil.L(DefaultBelief), mil.R(ctx.DomainVar), mil.R(q)}, segs...)...))
	assoc := tr.Emit("bla", mil.C("mark", mil.R(pairs), mil.L(int64(0))))
	vals := tr.Emit("blv", mil.C("reverse", mil.C("mark", mil.C("reverse", mil.R(pairs)), mil.L(int64(0)))))
	return &moa.SetRep{AssocVar: assoc, ValsVar: vals, ElemT: moa.FloatType}, nil
}

// emitGetBLScore is the fused flattening (sum∘getBL): the physical getbl
// (weighted: wsum_bel) operator scans only the matching postings, then
// default scores are filled in for the remaining domain elements.
func emitGetBLScore(tr *moa.Translator, ctx *moa.Ctx, recv moa.Rep, extra []moa.Rep) (moa.Rep, error) {
	sr, ok := recv.(*moa.StructRep)
	if !ok {
		return nil, fmt.Errorf("moa: getBLScore receiver must be a CONTREP field, got %T", recv)
	}
	if len(extra) != 2 {
		return nil, fmt.Errorf("moa: getBLScore needs query and stats arguments")
	}
	q, w, err := queryTermsVar(tr, sr.Prefix, extra[0])
	if err != nil {
		return nil, err
	}
	segs, err := segOperands(tr, sr.Prefix)
	if err != nil {
		return nil, err
	}
	args := []mil.Expr{mil.L(DefaultBelief), mil.R(q)}
	// default score for elements with no matching posting: |q| · default,
	// resp. Σ weights · default
	qlen := mil.C("count", mil.R(q))
	op := "getbl"
	if w != "" {
		args, qlen, op = append(args, mil.R(w)), mil.C("sum", mil.R(w)), "wsum_bel"
	}
	scores := tr.Emit("bls", mil.C(op, append(args, segs...)...))
	if !ctx.Full {
		scores = tr.Emit("bls", mil.C("semijoin", mil.R(scores), mil.R(ctx.DomainVar)))
	}
	defScore := tr.Emit("dfs", mil.C("calc", mil.L("*"), qlen, mil.L(DefaultBelief)))
	filled := tr.Emit("bls", mil.C("fill", mil.R(scores), mil.R(ctx.DomainVar), mil.R(defScore)))
	return &moa.AtomRep{Var: filled, T: moa.FloatType}, nil
}

// emitGetBLScoreTopK is the pruned fusion of topk∘sum∘getBL: instead of
// scoring the whole collection and letting the caller sort, the physical
// prunedtopk operator runs max-score skipping over the term-ordered
// postings and returns only the top k documents, already ranked (score
// descending, OID ascending). The plan optimizer calls this when a query's
// top-k root sits directly on a full-collection map of one getBLScore, or
// of a sum of them over several CONTREPs divided by a constant (the dual
// coding #sum); each call becomes one source of the operator. Any other
// shape keeps the exhaustive path.
func emitGetBLScoreTopK(tr *moa.Translator, ctx *moa.Ctx, calls []moa.TopKCall, div float64, k int) (*moa.SetVal, error) {
	if !ctx.Full {
		return nil, fmt.Errorf("moa: pruned top-k requires a full-collection scan")
	}
	args := []mil.Expr{mil.L(DefaultBelief), mil.L(int64(k)), mil.R(ctx.DomainVar), mil.L(div)}
	for _, c := range calls {
		sr, ok := c.Recv.(*moa.StructRep)
		if !ok {
			return nil, fmt.Errorf("moa: getBLScore receiver must be a CONTREP field, got %T", c.Recv)
		}
		if len(c.Extra) != 2 {
			return nil, fmt.Errorf("moa: getBLScore needs query and stats arguments")
		}
		segs, err := segOperands(tr, sr.Prefix)
		if err != nil {
			return nil, err
		}
		q, w, err := queryTermsVar(tr, sr.Prefix, c.Extra[0])
		if err != nil {
			return nil, err
		}
		args = append(args, mil.R(q))
		if w != "" {
			args = append(args, mil.R(w))
		}
		args = append(args, segs...)
	}
	pk := tr.Emit("pk", mil.C("prunedtopk", args...))
	dom := tr.Emit("pkd", mil.C("mirror", mil.R(pk)))
	return &moa.SetVal{
		DomainVar: dom,
		Full:      false,
		ElemT:     moa.FloatType,
		MkElem: func(ctx2 *moa.Ctx) (moa.Rep, error) {
			if ctx2.DomainVar == dom {
				return &moa.AtomRep{Var: pk, T: moa.FloatType}, nil
			}
			return &moa.AtomRep{Var: tr.Restrict(pk, ctx2), T: moa.FloatType}, nil
		},
	}, nil
}

// evalGetBL is the tuple-at-a-time path: per element, produce the belief of
// each query term present in the dictionary — weighted by its weight
// under a weighted query, so that sum(getBL(...)) is the #wsum evidence.
func evalGetBL(ip *moa.Interp, recv any, extra []any) (any, error) {
	cv, ok := recv.(*ContrepValue)
	if !ok {
		return nil, fmt.Errorf("moa: getBL receiver is %T", recv)
	}
	if len(extra) != 2 {
		return nil, fmt.Errorf("moa: getBL needs query and stats")
	}
	idx, err := dictIndex(ip.DB, cv.Prefix, false)
	if err != nil {
		return nil, err
	}
	terms, weights, err := queryTermList(extra[0])
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(terms))
	for i, t := range terms {
		if _, inDict := idx[t]; !inDict {
			continue // OOV terms drop out, as in the flattened join
		}
		b, ok := cv.Beliefs[t]
		if !ok {
			b = DefaultBelief
		}
		if weights != nil {
			b *= weights[i]
		}
		out = append(out, b)
	}
	return out, nil
}

func evalGetBLScore(ip *moa.Interp, recv any, extra []any) (any, error) {
	beliefs, err := evalGetBL(ip, recv, extra)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, b := range beliefs.([]any) {
		sum += b.(float64)
	}
	return sum, nil
}

// queryTermList extracts the term strings (and, from a weighted query,
// their weights; nil otherwise) from an interpreted query value.
func queryTermList(v any) ([]string, []float64, error) {
	switch items := v.(type) {
	case []moa.Row:
		out := make([]string, 0, len(items))
		var weights []float64
		for _, r := range items {
			if tv, ok := r.Value.(map[string]any); ok {
				w, _ := tv["weight"].(float64)
				weights = append(weights, w)
				r.Value = tv["term"]
			}
			s, ok := r.Value.(string)
			if !ok {
				return nil, nil, fmt.Errorf("moa: query term is %T", r.Value)
			}
			out = append(out, s)
		}
		if weights != nil && len(weights) != len(out) {
			return nil, nil, fmt.Errorf("moa: query mixes weighted and plain terms")
		}
		return out, weights, nil
	case []string:
		return items, nil, nil
	}
	return nil, nil, fmt.Errorf("moa: unsupported query value %T", v)
}

// QueryParams builds the standard parameter bindings for the paper's
// queries: `query` (a set of pre-analysed terms) and `stats`.
func QueryParams(terms []string) map[string]moa.Param {
	return map[string]moa.Param{"query": TermsParam(terms), "stats": StatsParam}
}

// StatsParam binds `stats`, the collection statistics getBL scores under.
var StatsParam = moa.Param{T: moa.StatsType, V: "stats"}

// WeightedTermsParam binds terms with one weight each (weights[i] is
// terms[i]'s; len(weights) >= len(terms)) as a weighted set
// (WeightedTermsType), the #wsum form getBL's query argument takes.
func WeightedTermsParam(terms []string, weights []float64) moa.Param {
	items := make([]any, len(terms))
	for i, t := range terms {
		items[i] = map[string]any{"term": t, "weight": weights[i]}
	}
	return moa.Param{T: WeightedTermsType, V: items}
}

// TermsParam binds a set of pre-analysed terms (or cluster words) as a
// Moa set parameter, the form getBL's query argument takes.
func TermsParam(terms []string) moa.Param {
	anyTerms := make([]any, len(terms))
	for i, t := range terms {
		anyTerms[i] = t
	}
	return moa.Param{T: &moa.SetType{Elem: moa.StrType}, V: anyTerms}
}
