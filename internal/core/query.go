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
// A top-k request runs it as one two-source pruned scan.
const dualQuery = `
	map[(sum(getBL(THIS.annotation, query, stats)) + sum(getBL(THIS.image, concepts, stats))) / 2](
		ImageLibraryInternal );`

// dualConcepts is how many thesaurus concepts a dual-coding query
// expands to.
const dualConcepts = 5

// dualParams binds dualQuery: the analysed text as `query`, the
// thesaurus expansion as `concepts`.
func dualParams(text string, concepts []string) map[string]moa.Param {
	params := ir.QueryParams(ir.Analyze(text))
	params["concepts"] = ir.TermsParam(concepts)
	return params
}

// Every ranked-retrieval entry point pins the current index epoch with
// one atomic load and evaluates entirely against that snapshot: queries
// never block on ingest/refresh/checkpoint activity and never observe a
// partially published segment. Before the first publish they fail with
// ErrNotIndexed.

// QueryAnnotations ranks the library against a free-text query using the
// textual annotations (the Section 3 scenario). The text passes through the
// same analyzer as the indexed annotations. k > 0 is pushed down into the
// query plan (pruned top-k retrieval); k <= 0 returns the full ranking.
func (m *Mirror) QueryAnnotations(text string, k int) ([]Hit, error) {
	hits, _, err := m.QueryAnnotationsStamped(text, k)
	return hits, err
}

// QueryAnnotationsStamped is QueryAnnotations plus the stamp of the epoch
// the answer was served from — the same pinned epoch, so the stamp can
// never mislabel the answer under concurrent publishes.
func (m *Mirror) QueryAnnotationsStamped(text string, k int) ([]Hit, EpochStamp, error) {
	ep, err := m.requireEpoch()
	if err != nil {
		return nil, EpochStamp{}, err
	}
	hits, err := m.ranked(ep, cacheAnnotations, k, text, nil, func(theta *bat.TopKThreshold) ([]Hit, error) {
		return ep.queryAnnotations(text, k, theta)
	})
	return hits, ep.stamp(), err
}

// QueryContent ranks the library by image content given cluster words
// (normally chosen through the thesaurus). k behaves as in
// QueryAnnotations.
func (m *Mirror) QueryContent(clusterWords []string, k int) ([]Hit, error) {
	ep, err := m.requireEpoch()
	if err != nil {
		return nil, err
	}
	return m.ranked(ep, cacheContent, k, "", clusterWords, func(theta *bat.TopKThreshold) ([]Hit, error) {
		return ep.rank(contentQuery, ir.QueryParams(clusterWords), k, theta)
	})
}

// QueryDualCoding is the full Section 5.2 retrieval: the text query ranks
// annotations directly AND, through the thesaurus, the image content
// representation; the two belief sources are combined with the inference
// network's #sum operator — one Moa expression (dualQuery) over ONE
// pinned epoch. k behaves as in QueryAnnotations.
func (m *Mirror) QueryDualCoding(text string, k int) ([]Hit, error) {
	hits, _, err := m.QueryDualCodingStamped(text, k)
	return hits, err
}

// QueryDualCodingStamped is QueryDualCoding plus the stamp of the pinned
// epoch it read. The thesaurus expansion is part of the cache key:
// feedback reinforces the thesaurus without publishing an epoch, so one
// text can expand differently within one epoch.
func (m *Mirror) QueryDualCodingStamped(text string, k int) ([]Hit, EpochStamp, error) {
	ep, err := m.requireEpoch()
	if err != nil {
		return nil, EpochStamp{}, err
	}
	concepts := expandConcepts(ep.thes, text, dualConcepts)
	hits, err := m.ranked(ep, cacheDual, k, text, concepts, func(theta *bat.TopKThreshold) ([]Hit, error) {
		return ep.rank(dualQuery, dualParams(text, concepts), k, theta)
	})
	return hits, ep.stamp(), err
}

// ranked serves one ranked query surface (kind, k, text, terms) of the
// pinned epoch: the result cache answers repeats, the θ-memo seeds the
// scan run evaluates, and a full ranking records its terminal k-th score.
func (m *Mirror) ranked(ep *IndexEpoch, kind cacheKind, k int, text string, terms []string, run func(theta *bat.TopKThreshold) ([]Hit, error)) ([]Hit, error) {
	c := m.cache.Load()
	if hits, ok := c.get(ep.Seq, kind, k, text, terms); ok {
		return hits, nil
	}
	tm := m.thetaMemo.Load()
	hits, err := run(seededTheta(tm, ep.Seq, kind, k, text, terms))
	if err == nil {
		c.put(ep.Seq, kind, k, text, terms, hits)
		memoTheta(tm, ep.Seq, kind, k, text, terms, hits)
	}
	return hits, err
}

// expandConcepts is the one query-expansion implementation behind every
// ExpandQuery surface (live store, pinned epoch, sharded engine and its
// epochs): the topK concepts the thesaurus associates with the analysed
// text. nil thesaurus (pre-index) expands to nothing.
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

// ExpandQuery maps free text to the topK associated content clusters via
// the thesaurus (the demo's query formulation step).
func (m *Mirror) ExpandQuery(text string, topK int) []string {
	return expandConcepts(m.Thesaurus(), text, topK)
}

// site is the retrieval surface feedback sessions combine evidence over:
// a single store, or a sharded engine's gather (in-process or networked).
// Every implementation answers under the OIDs its hits carry, so the
// #wsum combination above it is oblivious to how many stores answer.
type site interface {
	QueryAnnotations(text string, k int) ([]Hit, error)
	// WeightedContentScores returns a pooled score map the caller
	// releases with ir.ReleaseScores.
	WeightedContentScores(terms []string, weights []float64) (ir.Scores, error)
	ContentTerms(oid bat.OID) []string
	Thesaurus() *thesaurus.Thesaurus
	urlOf(oid bat.OID) string
	reinforceLogged(words, concepts []string, relevant bool) error
}

// scoresToHits ranks a combined score map and resolves URLs; k > 0 cuts
// with the bounded partial selection. The ranking scratch is pooled;
// RankInto may grow the backing array, so the borrow is threaded through
// the same variable.
func scoresToHits(r site, s ir.Scores, k int) []Hit {
	ranked := borrowRanked()
	ranked = ir.RankInto(ranked, s, k)
	hits := make([]Hit, 0, len(ranked))
	for _, rk := range ranked {
		hits = append(hits, Hit{OID: bat.OID(rk.Doc), URL: r.urlOf(bat.OID(rk.Doc)), Score: rk.Score})
	}
	releaseRanked(ranked)
	return hits
}

// WeightedContentScores scores the internal set's image CONTREP with
// per-term weights via the wsum physical operator; this is the primitive
// the relevance feedback loop uses. The returned map is pooled scratch:
// the caller owns it and releases it with ir.ReleaseScores when done.
func (m *Mirror) WeightedContentScores(terms []string, weights []float64) (ir.Scores, error) {
	ep, err := m.requireEpoch()
	if err != nil {
		return nil, err
	}
	return ep.WeightedContentScores(terms, weights)
}

// hitsToScores converts hits into a pooled Scores map; callers release it
// with ir.ReleaseScores when done.
func hitsToScores(hits []Hit) ir.Scores {
	out := ir.NewScores()
	for _, h := range hits {
		out[uint64(h.OID)] = h.Score
	}
	return out
}

// Query exposes raw Moa queries (used by moash and the network server).
// Parameters: the optional query terms bind the `query`/`stats` parameters.
func (m *Mirror) Query(src string, queryTerms []string) (*moa.Result, error) {
	return m.QueryTopK(src, queryTerms, 0)
}

// QueryTopK is Query with a ranked top-k request pushed into the plan
// optimizer: when the plan is a retrieval pruning can serve, only the k
// best rows come back, already ranked; otherwise the full exhaustive
// result is returned (the caller cuts). k <= 0 means no cut.
//
// Indexed stores evaluate against the serving epoch (snapshot-isolated);
// a store that never published an index evaluates against the live
// database — the pre-index browsing moash supports — which is safe only
// without concurrent ingest.
func (m *Mirror) QueryTopK(src string, queryTerms []string, k int) (*moa.Result, error) {
	res, _, err := m.QueryTopKStamped(src, queryTerms, k)
	return res, err
}

// QueryTopKStamped is QueryTopK plus the stamp of the epoch the plan ran
// against; the live-database fallback (no epoch published) returns the
// zero stamp.
func (m *Mirror) QueryTopKStamped(src string, queryTerms []string, k int) (*moa.Result, EpochStamp, error) {
	var params map[string]moa.Param
	if queryTerms != nil {
		params = ir.QueryParams(queryTerms)
	}
	if ep := m.currentEpoch(); ep != nil {
		res, err := ep.queryTopK(src, params, k, nil)
		return res, ep.stamp(), err
	}
	res, err := m.Eng.QueryTopK(src, params, k, nil)
	return res, EpochStamp{}, err
}
