package core

import (
	"errors"
	"fmt"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/thesaurus"
)

// annotationQuery is the paper's Section 3 ranking expression over the
// internal schema's text CONTREP.
const annotationQuery = `
	map[sum(THIS)](
		map[getBL(THIS.annotation, query, stats)]( ImageLibraryInternal ));`

// contentQuery is the Section 5.2 expression: rank by image content, where
// the query is a set of cluster words selected via the thesaurus.
const contentQuery = `
	map[sum(THIS)](
		map[getBL(THIS.image, query, stats)]( ImageLibraryInternal ));`

// dualQuery is the Section 5.2 expression: the text query ranks the
// annotations directly and, through the thesaurus, the image content
// (the `concepts` it expands to); #sum averages the two belief sources.
// A top-k request runs it as one two-source pruned scan. Relevance
// feedback runs the same expression with `concepts` bound as a weighted
// set (the session's cluster words), which makes it the #wsum of the
// text and the weighted content evidence with unit source weights.
const dualQuery = `
	map[(sum(getBL(THIS.annotation, query, stats)) + sum(getBL(THIS.image, concepts, stats))) / 2](
		ImageLibraryInternal );`

// dualConcepts is how many thesaurus concepts a dual-coding query
// expands to.
const dualConcepts = 5

// Stmt names a ranked statement: one of the Moa expressions above, or, on
// a leg only, an ad-hoc Moa source.
type Stmt uint8

const (
	StmtSource     Stmt = iota // ad-hoc Moa text (ShardQueryArgs.Source); no Query runs it
	StmtAnnotation             // annotationQuery
	StmtContent                // contentQuery
	StmtDual                   // dualQuery; with Weights, a feedback session round
	numStmts
)

// stmtSources is each named statement's Moa expression.
var stmtSources = [numStmts]string{
	StmtAnnotation: annotationQuery,
	StmtContent:    contentQuery,
	StmtDual:       dualQuery,
}

// ErrUnknownStmt refuses a statement number no engine defines.
var ErrUnknownStmt = errors.New("core: unknown statement")

// Query is the one ranked request: every engine's Run and the client's
// ranked RPC take it.
//
//   - StmtAnnotation ranks the annotations against Text.
//   - StmtContent ranks the image content against the cluster words Terms.
//   - StmtDual ranks both against Text, the content through the concepts
//     Terms; nil Terms expand Text with the serving view's thesaurus. With
//     Weights (one per concept, non-nil even when empty) the concepts are
//     a weighted set: a feedback session round (Session.Query).
//
// K > 0 asks for the k best hits, K <= 0 for the full ranking.
type Query struct {
	Stmt    Stmt
	Text    string
	Terms   []string
	Weights []float64
	K       int
}

// canonical validates q and puts a weighted concept set in canonical
// order, so one state ranks bit-identically whatever order it came in.
func (q Query) canonical() (Query, error) {
	if q.Stmt == StmtSource || q.Stmt >= numStmts {
		return q, fmt.Errorf("%w %d", ErrUnknownStmt, q.Stmt)
	}
	if q.Weights == nil {
		return q, nil
	}
	if q.Stmt != StmtDual {
		return q, fmt.Errorf("core: concept weights on statement %d (only a dual statement takes them)", q.Stmt)
	}
	weights, err := conceptWeights(q.Terms, q.Weights)
	if err != nil {
		return q, err
	}
	s := sessionOf(q.Text, weights, 0)
	q.Terms, q.Weights = s.Concepts, s.Weights
	return q, nil
}

// leg is the leg a canonical query ships: the analysed text (content:
// the cluster words) as `query` and, for dual, its concepts — non-nil
// even when empty, since a named statement binds every parameter its
// expression reads. text is Text already analysed, or nil.
func (q Query) leg(text []string) ShardQueryArgs {
	a := ShardQueryArgs{Stmt: q.Stmt, Query: text, K: q.K}
	if q.Stmt == StmtContent {
		a.Query = append([]string{}, q.Terms...)
	} else if text == nil {
		a.Query = ir.Analyze(q.Text)
	}
	if q.Stmt == StmtDual {
		a.Concepts, a.Weights = append([]string{}, q.Terms...), q.Weights
	}
	return a
}

// expandConcepts is the one query-expansion implementation: the topK
// concepts the thesaurus associates with the analysed text terms. nil
// thesaurus (pre-index) expands to nothing.
func expandConcepts(thes *thesaurus.Thesaurus, terms []string, topK int) []string {
	if thes == nil {
		return nil
	}
	assocs := thes.Associate(terms, topK)
	out := make([]string, len(assocs))
	for i, a := range assocs {
		out[i] = a.Concept
	}
	return out
}

// A single store is a one-leg gather: Mirror embeds a *Gather over
// storeShards, so the store, the sharded engine and the router answer
// every ranked and Moa query through the same code.

// storeShards is a single store as its gather sees it: one shard, whose
// view is the serving epoch.
type storeShards struct{ m *Mirror }

func (s storeShards) View() ShardView {
	if ep := s.m.currentEpoch(); ep != nil {
		return storeView{ep}
	}
	return nil
}

// liveView evaluates against the live database: the pre-index browsing
// moash supports, safe only without concurrent ingest. Its stamp is zero.
func (s storeShards) liveView() ShardView {
	return storeView{&IndexEpoch{DB: s.m.DB, Eng: s.m.Eng}}
}

func (s storeShards) ContentTerms(oid bat.OID) []string { return s.m.ContentTerms(oid) }

func (s storeShards) ReinforceLogged(words, concepts []string, relevant bool) error {
	return s.m.reinforceLogged(words, concepts, relevant)
}

// storeView is one pinned epoch of a single store as a one-leg view. Its
// leg keeps the store's own OIDs — a shard member queried directly
// answers in its local OID space, like any store.
type storeView struct{ ep *IndexEpoch }

func (v storeView) Stamp() EpochStamp               { return v.ep.stamp() }
func (v storeView) NumShards() int                  { return 1 }
func (v storeView) URLOf(oid bat.OID) string        { return v.ep.urlOf(oid) }
func (v storeView) Thesaurus() *thesaurus.Thesaurus { return v.ep.thes }

func (v storeView) Leg(_ int, q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error) {
	return v.ep.leg(q, theta, false)
}
