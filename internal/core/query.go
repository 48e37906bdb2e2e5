package core

import (
	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/moa"
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

// dualParams binds dualQuery: the analysed text as `query`, and as
// `concepts` the thesaurus expansion or, when weights is non-nil, a
// session's cluster words with their weights (conceptWeights' rules).
func dualParams(text string, concepts []string, weights []float64) (map[string]moa.Param, error) {
	params := ir.QueryParams(ir.Analyze(text))
	if weights == nil {
		params["concepts"] = ir.TermsParam(concepts)
		return params, nil
	}
	if _, err := conceptWeights(concepts, weights); err != nil {
		return nil, err
	}
	params["concepts"] = ir.WeightedTermsParam(concepts, weights)
	return params, nil
}

// expandConcepts is the one query-expansion implementation: the topK
// concepts the thesaurus associates with the analysed text. nil thesaurus
// (pre-index) expands to nothing.
func expandConcepts(thes *thesaurus.Thesaurus, text string, topK int) []string {
	if thes == nil {
		return nil
	}
	assocs := thes.Associate(ir.Analyze(text), topK)
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
