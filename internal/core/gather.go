package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/moa"
	"mirror/internal/thesaurus"
)

// The one scatter-gather query path. A ranked query over N shards is one
// per-shard leg (IndexEpoch.leg) and one gather (Gather) whichever way
// the legs travel; the in-process ShardedEngine and the networked
// dist.RouterEngine differ only in the transport below the seam:
//
//   - in-process legs scan their shard's pinned epoch directly, under the
//     gather's live shared threshold pointer;
//   - networked legs run the same leg on a shard daemon (Service.
//     ShardQuery) at the router's tag-pinned epoch, carry the threshold's
//     height at send time as their floor, and receive mid-flight raises
//     through the view's optional ThetaRose hook.
//
// Everything above the seam is shared: the θ-memo seed and record, the
// fold of each landed leg's merged k-th best into the shared threshold,
// the bounded merge (k > 0) or sorted concatenation (k <= 0), the wsum
// score union, and the feedback-session site.

// Shards is a sharded engine as its gather sees it: the serving view
// legs run against, plus the engine-global state sessions read and write.
type Shards interface {
	// View pins the current serving view; nil before the first publish.
	View() ShardView
	ContentTerms(oid bat.OID) []string
	Thesaurus() *thesaurus.Thesaurus
	// ReinforceLogged applies one durable thesaurus reinforcement.
	ReinforceLogged(words, concepts []string, relevant bool) error
}

// ShardView is one pinned serving view of a sharded collection — a
// vector of per-shard epochs that together cover one prefix of the
// global ingestion order. Every leg of one query runs against the same
// view.
type ShardView interface {
	// Stamp identifies the view; Seq is the generation keying the result
	// cache and the θ-memo.
	Stamp() EpochStamp
	NumShards() int
	// URLOf resolves an engine-global OID.
	URLOf(oid bat.OID) string
	// Leg runs q on shard s and returns its answer under global OIDs.
	// theta is the gather's shared pruning threshold (nil for unranked
	// legs); the leg may only raise it.
	Leg(s int, q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error)
}

// thetaStreamer is the optional hook of views whose legs cannot read the
// shared threshold live: ThetaRose is told the threshold rose to theta
// while the legs on the running shards (scatter scanID) still scan.
type thetaStreamer interface {
	ThetaRose(scanID uint64, theta float64, running []int)
}

// ShardLeg is one shard's answer to one scatter leg under engine-global
// OIDs: rows ("ann", "content", "dual", "moa"; unranked legs already cut
// to the global top k) or a score vector ("wsum").
type ShardLeg struct {
	rows   []moa.Row
	typ    moa.Type // "moa" legs evaluated in-process
	oids   []uint64 // "wsum"
	scores []float64
	theta  float64 // pruning threshold the leg's scan reached (K > 0)
}

// leg evaluates one scatter leg against the epoch: the one per-shard leg
// both transports run. It evaluates with the given pruning threshold,
// remaps local OIDs to global, and cuts an unranked result to the global
// top k.
func (ep *IndexEpoch) leg(q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error) {
	var params map[string]moa.Param
	src := q.Text
	switch q.Kind {
	case "wsum":
		return ep.wsumLeg(q.Terms, q.Weights)
	case "ann":
		src, params = annotationQuery, ir.QueryParams(ir.Analyze(q.Text))
	case "content":
		src, params = contentQuery, ir.QueryParams(q.Terms)
	case "dual":
		src, params = dualQuery, dualParams(q.Text, q.Terms)
	case "moa":
		if q.Terms != nil {
			params = ir.QueryParams(q.Terms)
		}
	default:
		return nil, fmt.Errorf("core: unknown shard query kind %q", q.Kind)
	}
	res, err := ep.queryTopK(src, params, q.K, theta)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return nil, fmt.Errorf("scalar Moa queries cannot be merged across shards (run against one shard)")
	}
	rows := res.Rows
	for i := range rows {
		if rows[i].OID, err = ep.globalOID(rows[i].OID); err != nil {
			return nil, err
		}
	}
	// The gather's bounded merge only needs this shard's global top k;
	// cutting here (on GLOBAL OIDs, after the remap — tie order must match
	// the merge's) is exact and bounds the leg.
	if q.K > 0 && !res.Ranked && len(rows) > q.K {
		rows = moa.TopKRows(rows, q.K)
	}
	l := &ShardLeg{rows: rows, typ: res.T}
	if theta != nil {
		l.theta = theta.Load()
	}
	return l, nil
}

// wsumLeg scores the epoch's image CONTREP with per-term weights under
// global OIDs (the relevance-feedback primitive).
func (ep *IndexEpoch) wsumLeg(terms []string, weights []float64) (*ShardLeg, error) {
	sc, err := ep.WeightedContentScores(terms, weights)
	if err != nil {
		ir.ReleaseScores(sc) // nil on error; release is nil-safe
		return nil, err
	}
	l := &ShardLeg{oids: make([]uint64, 0, len(sc)), scores: make([]float64, 0, len(sc))}
	for local, s := range sc {
		g, err := ep.globalOID(bat.OID(local))
		if err != nil {
			ir.ReleaseScores(sc)
			return nil, err
		}
		l.oids = append(l.oids, uint64(g))
		l.scores = append(l.scores, s)
	}
	ir.ReleaseScores(sc)
	return l, nil
}

// globalOID maps a shard-local document OID to its engine-global OID
// within the pinned epoch.
func (ep *IndexEpoch) globalOID(local bat.OID) (bat.OID, error) {
	if uint64(local) >= uint64(len(ep.globals)) {
		return 0, fmt.Errorf("local OID %d beyond %d mapped documents", local, len(ep.globals))
	}
	return bat.OID(ep.globals[local]), nil
}

// scanNonce + scanSeq generate process-unique scan ids for streamed
// threshold raises. The nonce makes ids from two routers sharing a shard
// fleet (or a restarted router) overwhelmingly unlikely to collide; even
// a collision only risks an extra pruning raise on a scan whose router
// streams exact-safe floors of its own.
var (
	scanNonce = uint64(time.Now().UnixNano())
	scanSeq   atomic.Uint64
)

func nextScanID() uint64 {
	for {
		if id := scanNonce + scanSeq.Add(1); id != 0 {
			return id
		}
	}
}

// scatter runs q on every shard of v concurrently. Ranked (K > 0) legs
// share one pruning threshold that rises from three sources: the seed (a
// memoised terminal score, or -Inf), every landed leg's own reached
// threshold, and fold — called once per landed leg, serialised — which
// returns the gather's merged k-th best once full, so straggler legs
// prune under everything already gathered. Views with a ThetaRose hook
// hear every rise while legs are still running. Pruning-only: the
// threshold never exceeds the global k-th best score.
func scatter(v ShardView, q ShardQueryArgs, seed float64, fold func(*ShardLeg) float64) ([]*ShardLeg, error) {
	n := v.NumShards()
	legs := make([]*ShardLeg, n)
	errs := make([]error, n)
	var theta *bat.TopKThreshold
	var streamer thetaStreamer
	if q.K > 0 {
		theta = bat.NewTopKThreshold()
		theta.Raise(seed)
		if st, ok := v.(thetaStreamer); ok && n > 1 {
			streamer, q.ScanID = st, nextScanID()
		}
	}
	var mu sync.Mutex // serialises fold and the running/sent bookkeeping
	done := make([]bool, n)
	sent := seed // every leg departs at >= the seed; only raises above it help
	landed := func(s int, l *ShardLeg) {
		mu.Lock()
		done[s] = true
		theta.Raise(l.theta)
		if fold != nil {
			theta.Raise(fold(l))
		}
		cur := theta.Load()
		var running []int
		if streamer != nil && cur > sent {
			sent = cur
			for x := range done {
				if !done[x] {
					running = append(running, x)
				}
			}
		}
		mu.Unlock()
		if len(running) > 0 {
			streamer.ThetaRose(q.ScanID, cur, running)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			legs[s], errs[s] = v.Leg(s, q, theta)
			if errs[s] == nil && theta != nil {
				landed(s, legs[s])
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return legs, nil
}

// gatherRows scatters a row leg and merges: the bounded top-k union under
// moa.RowWorse for k > 0 (legs fold in as they land), the plain
// concatenation otherwise (callers order it).
func gatherRows(v ShardView, q ShardQueryArgs, seed float64) ([]moa.Row, moa.Type, error) {
	var merged *bat.BoundedTopK[moa.Row]
	var fold func(*ShardLeg) float64
	if q.K > 0 {
		merged = bat.NewBoundedTopK(q.K, moa.RowWorse)
		numeric := true
		fold = func(l *ShardLeg) float64 {
			for _, row := range l.rows {
				_, isF := row.Value.(float64)
				numeric = numeric && isF
				merged.Offer(row)
			}
			// Only all-numeric merges order by score; a worst row from a
			// mixed merge is not a pruning bound.
			if w, ok := merged.Worst(); ok && merged.Full() && numeric {
				return w.Value.(float64)
			}
			return math.Inf(-1)
		}
	}
	legs, err := scatter(v, q, seed, fold)
	if err != nil {
		return nil, nil, err
	}
	typ := legs[0].typ
	if q.K > 0 {
		return merged.Ranked(), typ, nil
	}
	var all []moa.Row
	for _, l := range legs {
		all = append(all, l.rows...)
	}
	return all, typ, nil
}

// gatherWSum scatters a weighted-sum leg and unions the per-shard scores
// (shards are disjoint under global OIDs) into a pooled map whose
// ownership transfers to the caller.
func gatherWSum(v ShardView, terms []string, weights []float64) (ir.Scores, error) {
	legs, err := scatter(v, ShardQueryArgs{Kind: "wsum", Terms: terms, Weights: weights}, math.Inf(-1), nil)
	if err != nil {
		return nil, err
	}
	merged := ir.NewScores()
	for _, l := range legs {
		for i, g := range l.oids {
			merged[g] = l.scores[i]
		}
	}
	return merged, nil
}

// hitWorse orders hits under the ranked-retrieval total order: score
// descending, global OID ascending on ties — the same order a single
// store's ranking uses, which is what makes the merge a pure top-k union.
func hitWorse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.OID > b.OID
}

// Gather is the query half of a sharded engine, shared by the in-process
// ShardedEngine and the networked dist.RouterEngine: the Retriever query
// surface, the epoch-keyed result cache and θ-memo, and the dual-coding
// and session site, all over the engine's Shards.
type Gather struct {
	shards Shards
	// cache (SetResultCache, nil = off) and memo (SetThetaMemo, on by
	// default) are keyed on the view's generation, so every publish
	// invalidates them for free; swept is the newest generation whose
	// predecessors were swept out.
	cache atomic.Pointer[resultCache]
	memo  atomic.Pointer[ThetaMemo]
	swept atomic.Int64
}

// NewGather builds the query half of a sharded engine over its shards.
func NewGather(shards Shards) *Gather {
	g := &Gather{shards: shards}
	g.memo.Store(newThetaMemo(DefaultThetaMemoEntries))
	return g
}

// view pins the current serving view (nil before the first publish). The
// first query of a new generation sweeps the older generations out of the
// cache and the memo — correctness never depends on it, it just returns
// their memory.
func (g *Gather) view() ShardView {
	v := g.shards.View()
	if v != nil {
		if gen := v.Stamp().Seq; gen > g.swept.Load() {
			g.swept.Store(gen)
			g.cache.Load().sweep(gen)
			g.memo.Load().sweep(gen)
		}
	}
	return v
}

// hits runs a ranking ("ann", "content" or "dual") over one pinned view:
// the result cache answers repeats, the θ-memo seeds the shared
// threshold, and a full ranking records its terminal k-th score.
func (g *Gather) hits(v ShardView, kind cacheKind, q ShardQueryArgs) ([]Hit, error) {
	gen := v.Stamp().Seq
	c := g.cache.Load()
	if hits, ok := c.get(gen, kind, q.K, q.Text, q.Terms); ok {
		return hits, nil
	}
	tm := g.memo.Load()
	seed := math.Inf(-1)
	if s, ok := tm.get(gen, kind, q.K, q.Text, q.Terms); ok {
		seed = s
	}
	rows, _, err := gatherRows(v, q, seed)
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, len(rows))
	for i, row := range rows {
		score, _ := row.Value.(float64)
		hits[i] = Hit{OID: row.OID, URL: v.URLOf(row.OID), Score: score}
	}
	if q.K <= 0 {
		sort.Slice(hits, func(i, j int) bool { return hitWorse(hits[j], hits[i]) })
	}
	c.put(gen, kind, q.K, q.Text, q.Terms, hits)
	memoTheta(tm, gen, kind, q.K, q.Text, q.Terms, hits)
	return hits, nil
}

// Indexed reports whether a view is being served.
func (g *Gather) Indexed() bool { return g.shards.View() != nil }

// ServingEpoch reports the stamp of the view queries are currently served
// from; see Mirror.ServingEpoch.
func (g *Gather) ServingEpoch() (EpochStamp, bool) {
	v := g.shards.View()
	if v == nil {
		return EpochStamp{}, false
	}
	return v.Stamp(), true
}

// QueryAnnotations ranks the whole collection against a free-text query —
// scatter, then gather; see Mirror.QueryAnnotations for semantics.
func (g *Gather) QueryAnnotations(text string, k int) ([]Hit, error) {
	hits, _, err := g.QueryAnnotationsStamped(text, k)
	return hits, err
}

// QueryAnnotationsStamped is QueryAnnotations plus the stamp of the view
// every leg ran against.
func (g *Gather) QueryAnnotationsStamped(text string, k int) ([]Hit, EpochStamp, error) {
	v := g.view()
	if v == nil {
		return nil, EpochStamp{}, ErrNotIndexed
	}
	hits, err := g.hits(v, cacheAnnotations, ShardQueryArgs{Kind: "ann", Text: text, K: k})
	return hits, v.Stamp(), err
}

// QueryContent ranks by image content given cluster words.
func (g *Gather) QueryContent(clusterWords []string, k int) ([]Hit, error) {
	v := g.view()
	if v == nil {
		return nil, ErrNotIndexed
	}
	return g.hits(v, cacheContent, ShardQueryArgs{Kind: "content", Terms: clusterWords, K: k})
}

// QueryDualCoding combines annotation and content evidence (#sum): one
// "dual" leg per shard, each the same two-source pruned scan a single
// store runs, under the shared threshold; see Mirror.QueryDualCoding.
func (g *Gather) QueryDualCoding(text string, k int) ([]Hit, error) {
	hits, _, err := g.QueryDualCodingStamped(text, k)
	return hits, err
}

// QueryDualCodingStamped is QueryDualCoding plus the stamp of the pinned
// view every leg read. The gather expands the text once, with the
// engine's thesaurus, and ships the concepts in the leg, so they key the
// cache and the θ-memo beside the text.
func (g *Gather) QueryDualCodingStamped(text string, k int) ([]Hit, EpochStamp, error) {
	v := g.view()
	if v == nil {
		return nil, EpochStamp{}, ErrNotIndexed
	}
	q := ShardQueryArgs{Kind: "dual", Text: text, Terms: g.ExpandQuery(text, dualConcepts), K: k}
	hits, err := g.hits(v, cacheDual, q)
	return hits, v.Stamp(), err
}

// Query runs a raw Moa query across all shards (see QueryTopK).
func (g *Gather) Query(src string, queryTerms []string) (*moa.Result, error) {
	return g.QueryTopK(src, queryTerms, 0)
}

// QueryTopK runs a raw Moa query on every shard and merges set-typed
// results under global OIDs: k > 0 merges the shard rankings through the
// bounded selector (rows come back ranked and cut — on a sharded engine
// the cut always happens gather-side, even for plans served exhaustively
// on the shards); k <= 0 concatenates in ascending global OID order.
// Scalar queries are refused: aggregating arbitrary scalars across shards
// is query-specific, and silently summing or averaging would lie.
func (g *Gather) QueryTopK(src string, queryTerms []string, k int) (*moa.Result, error) {
	res, _, err := g.QueryTopKStamped(src, queryTerms, k)
	return res, err
}

// liveViewer is the optional Shards hook behind pre-index Moa browsing: a
// view over the live shard databases (the in-process engine has one; a
// router has no epoch to pin before its first build).
type liveViewer interface{ liveView() ShardView }

// QueryTopKStamped is QueryTopK plus the stamp of the view every shard
// evaluated against; the live-database fallback returns the zero stamp.
func (g *Gather) QueryTopKStamped(src string, queryTerms []string, k int) (*moa.Result, EpochStamp, error) {
	v := g.view()
	if v == nil {
		lv, ok := g.shards.(liveViewer)
		if !ok {
			return nil, EpochStamp{}, ErrNotIndexed
		}
		v = lv.liveView()
	}
	rows, typ, err := gatherRows(v, ShardQueryArgs{Kind: "moa", Text: src, Terms: queryTerms, K: k}, math.Inf(-1))
	if err != nil {
		return nil, v.Stamp(), err
	}
	if k <= 0 {
		sort.Slice(rows, func(i, j int) bool { return rows[i].OID < rows[j].OID })
	}
	return &moa.Result{T: typ, Rows: rows, Ranked: k > 0}, v.Stamp(), nil
}

// WeightedContentScores scatters the weighted-sum scoring across one
// pinned view and unions the per-shard scores under global OIDs. The
// returned map is pooled: the caller releases it with ir.ReleaseScores.
func (g *Gather) WeightedContentScores(terms []string, weights []float64) (ir.Scores, error) {
	return gatherSite{g: g}.WeightedContentScores(terms, weights)
}

// ExpandQuery maps free text to associated content clusters via the
// engine's thesaurus.
func (g *Gather) ExpandQuery(text string, topK int) []string {
	return expandConcepts(g.shards.Thesaurus(), text, topK)
}

// NewSession starts a relevance-feedback session over the sharded
// collection; judgments arrive as global OIDs (what hits carry).
func (g *Gather) NewSession(text string) (*Session, error) {
	if g.view() == nil {
		return nil, ErrNotIndexed
	}
	return newSession(gatherSite{g: g}, text), nil
}

// SetResultCache installs (or, with maxBytes <= 0, removes) a result
// cache bounded to roughly maxBytes, shared by all shards (the gathered
// results it stores carry global OIDs).
func (g *Gather) SetResultCache(maxBytes int64) { g.cache.Store(newResultCache(maxBytes)) }

// ResultCacheStats reports the result cache's effectiveness counters
// (zero when caching is disabled).
func (g *Gather) ResultCacheStats() CacheStats { return g.cache.Load().stats() }

// SetThetaMemo installs (or, with maxEntries <= 0, removes) the threshold
// memo bounded to roughly maxEntries; seeds are pruning-only, so toggling
// it is always safe.
func (g *Gather) SetThetaMemo(maxEntries int) { g.memo.Store(newThetaMemo(maxEntries)) }

// ThetaMemoStats reports the threshold memo's effectiveness counters
// (zero when the memo is disabled).
func (g *Gather) ThetaMemoStats() ThetaMemoStats { return memoStats(g.memo.Load()) }

// gatherSite is a gather as the site feedback sessions combine evidence
// over, reading the current view per call (sessions span publishes, like
// a single store's).
type gatherSite struct{ g *Gather }

func (s gatherSite) view() (ShardView, error) {
	if v := s.g.view(); v != nil {
		return v, nil
	}
	return nil, ErrNotIndexed
}

func (s gatherSite) QueryAnnotations(text string, k int) ([]Hit, error) {
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	return s.g.hits(v, cacheAnnotations, ShardQueryArgs{Kind: "ann", Text: text, K: k})
}

func (s gatherSite) WeightedContentScores(terms []string, weights []float64) (ir.Scores, error) {
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	return gatherWSum(v, terms, weights)
}

func (s gatherSite) ContentTerms(oid bat.OID) []string { return s.g.shards.ContentTerms(oid) }

func (s gatherSite) Thesaurus() *thesaurus.Thesaurus { return s.g.shards.Thesaurus() }

func (s gatherSite) urlOf(oid bat.OID) string {
	v, err := s.view()
	if err != nil {
		return ""
	}
	return v.URLOf(oid)
}

func (s gatherSite) reinforceLogged(words, concepts []string, relevant bool) error {
	return s.g.shards.ReinforceLogged(words, concepts, relevant)
}
