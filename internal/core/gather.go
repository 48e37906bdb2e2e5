package core

import (
	"cmp"
	"errors"
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

// The one ranked-query path. A query over N >= 1 shards is one per-shard
// leg (IndexEpoch.leg) and one gather (Gather) whichever way the legs
// travel; the single store, the in-process ShardedEngine and the networked
// dist.RouterEngine differ only in the view below the seam:
//
//   - a single store is a one-leg view of its serving epoch (storeView);
//     its leg keeps the store's own OIDs (identity remap) and runs on the
//     caller's goroutine, and its rows are the answer — nothing to merge;
//   - in-process engine legs scan their shard's pinned epoch directly,
//     under the gather's live shared threshold pointer;
//   - networked legs run the same leg on a shard daemon (Service.
//     ShardQuery) at the router's tag-pinned epoch, carry the threshold's
//     height at send time as their floor, and receive mid-flight raises
//     through the view's optional ThetaRose hook.
//
// Everything above the seam is shared: the result cache, the θ-memo seed
// and record, the fold of each landed leg's merged k-th best into the
// shared threshold, the bounded merge (k > 0) or sorted concatenation
// (k <= 0), dual expansion and feedback sessions (a session round is a
// dual leg with weighted concepts).
// Nothing above the seam takes an engine lock: a view pins everything a
// query reads (its thesaurus and its URL order included) at publish.

// Shards is an engine as its gather sees it: the serving view legs run
// against, plus the engine-global state sessions read and write.
type Shards interface {
	// View pins the current serving view; nil before the first publish.
	View() ShardView
	ContentTerms(oid bat.OID) []string
	// ReinforceLogged applies one durable thesaurus reinforcement.
	ReinforceLogged(words, concepts []string, relevant bool) error
}

// ShardView is one pinned serving view of a collection — a vector of
// per-shard epochs that together cover one prefix of the global ingestion
// order. Every leg of one query runs against the same view, and every
// method is lock-free.
type ShardView interface {
	// Stamp identifies the view; Seq is the generation keying the result
	// cache and the θ-memo.
	Stamp() EpochStamp
	NumShards() int
	// URLOf resolves an OID of the view's answers.
	URLOf(oid bat.OID) string
	// Thesaurus is the thesaurus the view was published with (nil when
	// none was built); dual expansion and session seeding read it.
	Thesaurus() *thesaurus.Thesaurus
	// Leg runs q on shard s. theta is the gather's shared pruning
	// threshold (nil for unranked legs and unseeded one-leg views); the
	// leg may only raise it.
	Leg(s int, q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error)
}

// thetaStreamer is the optional hook of views whose legs cannot read the
// shared threshold live: ThetaRose is told the threshold rose to theta
// while the legs on the running shards (scatter scanID) still scan.
type thetaStreamer interface {
	ThetaRose(scanID uint64, theta float64, running []int)
}

// ShardLeg is one shard's answer to one leg: rows (a k > 0 leg is ranked
// and cut to k), or a scalar ad-hoc Moa result, which only a one-leg view
// passes through.
type ShardLeg struct {
	rows   []moa.Row
	typ    moa.Type // legs evaluated in-process
	scalar *moa.Result
	theta  float64 // pruning threshold the leg's scan reached (K > 0)
}

// errScalarMerge refuses a scalar Moa result on a view of more than one
// shard: aggregating arbitrary scalars across shards is query-specific,
// and silently summing or averaging would lie.
var errScalarMerge = errors.New("scalar Moa queries cannot be merged across shards (run against one shard)")

// leg evaluates one leg against the epoch: the one per-shard leg every
// view runs. It binds the leg's statement the same way whatever the
// statement, evaluates with the given pruning threshold, remaps local
// OIDs to global when remap is set (sharded legs; a store answering for
// itself keeps its own OIDs), and ranks and cuts an unranked k > 0 result
// to k.
func (ep *IndexEpoch) leg(q ShardQueryArgs, theta *bat.TopKThreshold, remap bool) (*ShardLeg, error) {
	if q.Stmt >= numStmts {
		return nil, fmt.Errorf("%w %d", ErrUnknownStmt, q.Stmt)
	}
	src := cmp.Or(stmtSources[q.Stmt], q.Source) // StmtSource has none
	// `stats` always, `query` when Query is non-nil, and `concepts` — a
	// weighted set iff Weights is non-nil — when Concepts is. A plain set
	// is not bound as unit weights: #wsum adds each belief's surplus over
	// the default, #sum the beliefs, so scores would move in the last bit.
	params := map[string]moa.Param{"stats": ir.StatsParam}
	if q.Query != nil {
		params["query"] = ir.TermsParam(q.Query)
	}
	if q.Weights != nil {
		if _, err := conceptWeights(q.Concepts, q.Weights); err != nil {
			return nil, err
		}
		params["concepts"] = ir.WeightedTermsParam(q.Concepts, q.Weights)
	} else if q.Concepts != nil {
		params["concepts"] = ir.TermsParam(q.Concepts)
	}
	res, err := ep.Eng.QueryTopK(src, params, q.K, theta)
	if err != nil {
		return nil, err
	}
	if res.Rows == nil {
		return &ShardLeg{scalar: res}, nil
	}
	rows := res.Rows
	if remap {
		for i := range rows {
			if rows[i].OID, err = ep.globalOID(rows[i].OID); err != nil {
				return nil, err
			}
		}
	}
	// Cutting after the remap keeps the tie order the gather's merge
	// uses, and bounds the leg.
	if q.K > 0 && !res.Ranked {
		rows = moa.TopKRows(rows, q.K)
	}
	l := &ShardLeg{rows: rows, typ: res.T}
	if theta != nil {
		l.theta = theta.Load()
	}
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

// gatherRows answers a row leg over the view. A one-leg view is not a
// scatter: its leg runs on the caller's goroutine (with a threshold only
// when the θ-memo seeds one) and its answer is the result, scalars
// included. Otherwise the legs scatter and merge: the bounded top-k union
// under moa.RowWorse for k > 0 (legs fold in as they land), the plain
// concatenation otherwise (callers order it).
func gatherRows(v ShardView, q ShardQueryArgs, seed float64) (*ShardLeg, error) {
	if v.NumShards() == 1 {
		var theta *bat.TopKThreshold
		if q.K > 0 && seed > math.Inf(-1) {
			theta = bat.NewTopKThreshold()
			theta.Raise(seed)
		}
		return v.Leg(0, q, theta)
	}
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
		return nil, err
	}
	out := &ShardLeg{typ: legs[0].typ}
	for _, l := range legs {
		if l.scalar != nil {
			return nil, fmt.Errorf("core: %w", errScalarMerge)
		}
		if q.K <= 0 {
			out.rows = append(out.rows, l.rows...)
		}
	}
	if q.K > 0 {
		out.rows = merged.Ranked()
	}
	return out, nil
}

// hitWorse orders hits under the ranked-retrieval total order: score
// descending, OID ascending on ties — the same order every leg ranks by,
// which is what makes the merge a pure top-k union.
func hitWorse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.OID > b.OID
}

// Gather is the query half of every engine — a single store (a one-leg
// view), the in-process ShardedEngine and the networked dist.RouterEngine:
// the Retriever query surface, the epoch-keyed result cache and θ-memo,
// dual expansion and feedback sessions, all over the engine's Shards.
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

// NewGather builds the query half of an engine over its shards.
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

// Indexed reports whether a view is being served.
func (g *Gather) Indexed() bool { return g.shards.View() != nil }

// Run is the one ranked-query implementation: it runs q over one pinned
// view and returns the hits with that view's stamp. The result cache
// answers repeats before any text is analysed, and the θ-memo seeds the
// threshold; both key on (generation, statement, k, text, terms). A dual
// query without concepts is expanded first, and the expansion is part of
// the key: feedback reinforces the thesaurus without publishing, so one
// text can expand differently within one view. The key has no weights,
// so a weighted round (a feedback session's) bypasses both.
func (g *Gather) Run(q Query) ([]Hit, EpochStamp, error) {
	v := g.view()
	if v == nil {
		return nil, EpochStamp{}, ErrNotIndexed
	}
	st := v.Stamp()
	q, err := q.canonical()
	if err != nil {
		return nil, st, err
	}
	var text []string
	if q.Stmt == StmtDual && q.Terms == nil {
		text = ir.Analyze(q.Text)
		q.Terms = expandConcepts(v.Thesaurus(), text, dualConcepts)
	}
	c, tm := g.cache.Load(), g.memo.Load()
	if q.Weights != nil {
		c, tm = nil, nil
	}
	if hits, ok := c.get(st.Seq, &q); ok {
		return hits, st, nil
	}
	seed := math.Inf(-1)
	if s, ok := tm.get(st.Seq, &q); ok {
		seed = s
	}
	l, err := gatherRows(v, q.leg(text), seed)
	if err != nil {
		return nil, st, err
	}
	hits := rowHits(v, l.rows, q.K)
	c.put(st.Seq, &q, hits)
	memoTheta(tm, st.Seq, &q, hits)
	return hits, st, nil
}

// rowHits resolves a gathered ranking's rows to hits; a full (k <= 0)
// ranking arrives unordered and is sorted here.
func rowHits(v ShardView, rows []moa.Row, k int) []Hit {
	hits := make([]Hit, len(rows))
	for i, row := range rows {
		score, _ := row.Value.(float64)
		hits[i] = Hit{OID: row.OID, URL: v.URLOf(row.OID), Score: score}
	}
	if k <= 0 {
		sort.Slice(hits, func(i, j int) bool { return hitWorse(hits[j], hits[i]) })
	}
	return hits
}

// Every ranked-retrieval entry point pins the current view with one
// atomic load and evaluates entirely against that snapshot: queries never
// block on ingest/refresh/checkpoint activity and never observe a
// partially published segment. Before the first publish they fail with
// ErrNotIndexed.

// ServingEpoch reports the stamp of the view queries are currently served
// from; ok is false (and the stamp zero) before the first publish. Because
// queries pin their own view, a stamp observed here only brackets
// concurrent answers — per-answer stamps come from Run.
func (g *Gather) ServingEpoch() (EpochStamp, bool) {
	v := g.shards.View()
	if v == nil {
		return EpochStamp{}, false
	}
	return v.Stamp(), true
}

// QueryAnnotations, QueryAnnotationsStamped, QueryContent and
// QueryDualCodingStamped run one statement each through Run; they stay
// for the benchmark harness in bench/.
func (g *Gather) QueryAnnotations(text string, k int) ([]Hit, error) {
	hits, _, err := g.QueryAnnotationsStamped(text, k)
	return hits, err
}

func (g *Gather) QueryAnnotationsStamped(text string, k int) ([]Hit, EpochStamp, error) {
	return g.Run(Query{Stmt: StmtAnnotation, Text: text, K: k})
}

func (g *Gather) QueryContent(clusterWords []string, k int) ([]Hit, error) {
	hits, _, err := g.Run(Query{Stmt: StmtContent, Terms: clusterWords, K: k})
	return hits, err
}

func (g *Gather) QueryDualCodingStamped(text string, k int) ([]Hit, EpochStamp, error) {
	return g.Run(Query{Stmt: StmtDual, Text: text, K: k})
}

// liveViewer is the optional Shards hook behind pre-index Moa browsing: a
// view over the live databases (a store and the in-process engine have
// one; a router has no epoch to pin before its first build).
type liveViewer interface{ liveView() ShardView }

// QueryTopKStamped runs ad-hoc Moa on every leg, the optional query terms
// bound as `query`, and returns it with the stamp of the view the legs
// read. k > 0 returns at most k rows, ranked, pruned plan or not; k <= 0
// every row in ascending OID order. A one-leg view returns a scalar as
// is; a merge of several legs refuses it. An engine that never published
// evaluates against its live databases (moash's pre-index browsing, safe
// only without concurrent ingest) under the zero stamp.
func (g *Gather) QueryTopKStamped(src string, queryTerms []string, k int) (*moa.Result, EpochStamp, error) {
	v := g.view()
	if v == nil {
		lv, ok := g.shards.(liveViewer)
		if !ok {
			return nil, EpochStamp{}, ErrNotIndexed
		}
		v = lv.liveView()
	}
	l, err := gatherRows(v, ShardQueryArgs{Stmt: StmtSource, Source: src, Query: queryTerms, K: k}, math.Inf(-1))
	if err != nil {
		return nil, v.Stamp(), err
	}
	if l.scalar != nil {
		return l.scalar, v.Stamp(), nil
	}
	if k <= 0 {
		sort.Slice(l.rows, func(i, j int) bool { return l.rows[i].OID < l.rows[j].OID })
	}
	return &moa.Result{T: l.typ, Rows: l.rows, Ranked: k > 0}, v.Stamp(), nil
}

// ExpandQuery maps free text to the topK associated content clusters via
// the serving view's thesaurus (the demo's query formulation step);
// nothing before the first publish.
func (g *Gather) ExpandQuery(text string, topK int) []string {
	v := g.shards.View()
	if v == nil {
		return nil
	}
	return expandConcepts(v.Thesaurus(), ir.Analyze(text), topK)
}

// SetResultCache installs (or, with maxBytes <= 0, removes) an
// epoch-keyed query result cache bounded to roughly maxBytes. Safe to call
// at any time; in-flight queries keep using the cache they loaded.
func (g *Gather) SetResultCache(maxBytes int64) { g.cache.Store(newResultCache(maxBytes)) }

// ResultCacheStats reports the result cache's effectiveness counters
// (zero when caching is disabled).
func (g *Gather) ResultCacheStats() CacheStats { return g.cache.Load().stats() }

// SetThetaMemo installs (or, with maxEntries <= 0, removes) the
// epoch-keyed threshold memo bounded to roughly maxEntries. Seeds are
// pruning-only — they never change what a query returns — so toggling
// the memo is always safe.
func (g *Gather) SetThetaMemo(maxEntries int) { g.memo.Store(newThetaMemo(maxEntries)) }

// ThetaMemoStats reports the threshold memo's effectiveness counters
// (zero when the memo is disabled).
func (g *Gather) ThetaMemoStats() ThetaMemoStats { return memoStats(g.memo.Load()) }
