package core

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/storage"
	"mirror/internal/thesaurus"
)

// ShardedEngine is the placement-aware face of the Mirror DBMS: the
// document collection is partitioned by URL hash across N member stores
// (each a full *Mirror with its own BAT buffer pool and WAL), inserts are
// routed to their shard, and queries scatter to every shard and gather
// through the shared bounded top-k selector. It implements the same
// Retriever surface as a single store, so the RPC service and the shells
// cannot tell the difference — that transparency rests on three
// invariants:
//
//   - Global identity. Every document carries a global OID (its position
//     in the engine-wide ingestion order), persisted shard-locally in the
//     store manifest and WAL. Hits are remapped local→global before
//     merging, so scores AND tie-breaks (ascending OID) are exactly those
//     of a single store that ingested the same sequence.
//
//   - Global statistics. Shard-local indexing would compute local df/N/
//     avgdl and local vocabularies, diverging from a single store. The
//     engine runs extraction and clustering once over the global order,
//     computes collection statistics once, and registers them as overrides
//     (ir.SetGlobalStats) plus a union dictionary (ir.EnsureDictTerms) on
//     every shard before Finalize. Beliefs then become pure per-document
//     annotations — comparable across shards by construction.
//
//   - Shared pruning threshold. Ranked (k > 0) queries hand every shard's
//     pruned top-k scan one bat.TopKThreshold, so a hot shard's k-th best
//     score prunes the cold shards' scans exactly as a store's segments
//     prune each other inside one scan.
//
// Together these yield the differential guarantee the tests pin: for any
// shard count, the merged result is BUN-for-BUN identical (ties included)
// to the single-store result.
// Topology describes the engine's serving topology (moash \topology).
func (e *ShardedEngine) Topology() string {
	return fmt.Sprintf("sharded engine (%d in-process shards)", len(e.shards))
}

type ShardedEngine struct {
	mu     sync.RWMutex
	shards []*Mirror // immutable slice after construction

	// global ingestion bookkeeping. order[g] is the URL of global OID g
	// ("" marks a gap left by a shard that lost WAL-tail inserts in a
	// crash); loc[g] locates the document's shard and local OID.
	order []string
	urls  map[string]struct{}
	loc   []shardLoc

	thes *thesaurus.Thesaurus // shared across shards (shard 0 is authority)

	persistent bool
	root       string // store root in persistent mode

	// Snapshot-isolated serving across shards: queries pin ONE engine
	// epoch — a consistent vector of per-shard epochs plus the frozen
	// global order — so a refresh that has published on shard A but not
	// yet on shard B can never produce a cross-shard torn read. buildMu
	// serialises engine-level index construction (full builds and
	// refreshes).
	epoch    atomic.Pointer[engineEpoch]
	epochSeq int64
	buildMu  sync.Mutex

	// Gather is the engine's query half: scatter-gather over the pinned
	// engine epoch, plus the result cache and θ-memo keyed on its sequence
	// number, so every engine-level publish invalidates them for free.
	*Gather

	// Frozen content model and running global collection statistics (the
	// exact integer bookkeeping behind df/N/avgdl), maintained
	// incrementally at each refresh and rebuilt from shard state on open.
	codebook           *Codebook
	annStats, imgStats *ir.GlobalStats
	annTotal, imgTotal int // token totals behind the AvgDocLen ratios
}

// engineEpoch is one published engine-wide snapshot: the per-shard epochs
// that together cover exactly docs global positions of the frozen order.
type engineEpoch struct {
	seq    int64
	docs   int      // covered global positions (gaps included)
	live   int      // covered documents (crash gaps excluded) — the wire stamp
	order  []string // frozen prefix of the global ingestion order
	shards []*IndexEpoch
	thes   *thesaurus.Thesaurus // the shared thesaurus at publish
}

type shardLoc struct {
	shard int
	local bat.OID
}

// NewSharded creates an empty in-memory engine with n shards.
func NewSharded(n int) (*ShardedEngine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shard count must be >= 1, got %d", n)
	}
	e := &ShardedEngine{urls: map[string]struct{}{}}
	e.Gather = NewGather(e)
	for i := 0; i < n; i++ {
		m, err := New()
		if err != nil {
			return nil, err
		}
		m.shardIndex, m.shardCount = i, n
		e.shards = append(e.shards, m)
	}
	return e, nil
}

// shardFor routes a URL to its shard: FNV-64a of the URL modulo the shard
// count. The function is pure, so placement survives restarts without a
// routing table — the same URL always lands on the same shard.
func (e *ShardedEngine) shardFor(url string) int {
	return ShardOf(url, len(e.shards))
}

// ShardOf is the engine's routing function as a pure standalone: the
// shard an n-shard engine stores url on. Workload synthesis uses it to
// construct shard-skewed document distributions without an engine.
func ShardOf(url string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(url))
	return int(h.Sum64() % uint64(n))
}

// NumShards reports the shard count.
func (e *ShardedEngine) NumShards() int { return len(e.shards) }

// Shard exposes one member store (read-only use: shell introspection and
// tests). Mutations must go through the engine or global invariants break.
func (e *ShardedEngine) Shard(i int) *Mirror { return e.shards[i] }

// ShardInfo describes one shard for introspection (moash \shards).
type ShardInfo struct {
	Index int
	Docs  int
	BATs  int
	Dir   string // "" for in-memory engines
}

// ShardInfos reports the layout: per-shard document counts (the skew the
// hash routing produced), BAT counts, and store directories.
func (e *ShardedEngine) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardInfo{Index: i, Docs: sh.Size(), BATs: len(sh.DB.BATNames())}
		if e.persistent {
			out[i].Dir = filepath.Join(e.root, shardDirName(i))
		}
	}
	return out
}

// ---- ingestion ----

// AddImage routes one library item to its shard and records its global
// identity. The engine-wide duplicate check runs first so a URL cannot
// land twice even if shard-local state were lost.
func (e *ShardedEngine) AddImage(url, annotation string, img *media.Image) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.urls[url]; dup {
		return fmt.Errorf("core: image %q already in library", url)
	}
	s := e.shardFor(url)
	g := uint64(len(e.order))
	pre := e.shards[s].Size()
	err := e.shards[s].addImageShard(url, annotation, img, g)
	// A WAL-append failure from the shard means "ingested but not
	// WAL-logged" — the document IS in the shard (and owns global OID g),
	// so the engine must record it or the next insert would reuse g and
	// corrupt the global mapping. Judge by what actually happened (the
	// shard grew), not by the error alone.
	if e.shards[s].Size() > pre {
		e.order = append(e.order, url)
		e.urls[url] = struct{}{}
		e.loc = append(e.loc, shardLoc{shard: s, local: bat.OID(pre)})
	}
	return err
}

// AddRaster re-attaches footage to an already-ingested URL on its shard.
func (e *ShardedEngine) AddRaster(url string, img *media.Image) error {
	return e.shards[e.shardFor(url)].AddRaster(url, img)
}

// Raster returns the stored raster for a URL.
func (e *ShardedEngine) Raster(url string) (*media.Image, bool) {
	return e.shards[e.shardFor(url)].Raster(url)
}

// Size reports the number of library items across all shards.
func (e *ShardedEngine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.urls)
}

// URLs returns the item URLs in global ingestion order.
func (e *ShardedEngine) URLs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.urls))
	for _, u := range e.order {
		if u != "" {
			out = append(out, u)
		}
	}
	return out
}

// Current reports whether the serving engine epoch covers every ingested
// document.
func (e *ShardedEngine) Current() bool {
	ee := e.epoch.Load()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return ee != nil && ee.docs == len(e.order)
}

// Pending reports how many ingested documents the serving engine epoch
// does not cover yet (global positions, so crash gaps never count).
func (e *ShardedEngine) Pending() int {
	ee := e.epoch.Load()
	e.mu.RLock()
	defer e.mu.RUnlock()
	covered := 0
	if ee != nil {
		covered = ee.docs
	}
	n := 0
	for _, u := range e.order[covered:] {
		if u != "" {
			n++
		}
	}
	return n
}

// Segments reports the serving epoch's per-shard segment layouts.
func (e *ShardedEngine) Segments() []SegmentsInfo {
	ee := e.epoch.Load()
	if ee == nil {
		return nil
	}
	var out []SegmentsInfo
	for s, ep := range ee.shards {
		out = append(out, ep.segmentsOf(s)...)
	}
	return out
}

// Refresh incrementally indexes every document ingested since the last
// publish: extraction and frozen-codebook assignment run once globally
// (off the locks), the running collection statistics advance by exactly
// the delta (integer bookkeeping — beliefs stay identical to a one-shot
// build), every shard republishes under the refreshed statistics (a
// shard with no new documents still refinalizes: df/N/avgdl moved), and
// one new engine epoch swaps in atomically — queries never observe a
// state in which some shards have refreshed and others have not.
func (e *ShardedEngine) Refresh() (RefreshStats, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	return e.refreshWith(newLocalPipeline(e.rasterLookup()))
}

// refreshWith is Refresh against an arbitrary pipeline (tests inject
// deterministic extractors). Caller holds e.buildMu.
func (e *ShardedEngine) refreshWith(pipe segmentExtractor) (RefreshStats, error) {
	defer pipe.close()
	var st RefreshStats
	ee := e.epoch.Load()
	if ee == nil {
		return st, fmt.Errorf("core: Refresh: %w", ErrNotIndexed)
	}
	e.mu.RLock()
	coveredPos := ee.docs
	orderLen := len(e.order)
	shardCovered := make([]int, len(e.shards))
	for s, sh := range e.shards {
		shardCovered[s] = sh.covered()
	}
	// alreadyCovered skips documents a shard recovered beyond the engine
	// prefix (torn-tail sibling recovery): re-publishing would duplicate
	// them in the shard's internal set.
	alreadyCovered := func(g int) bool {
		l := e.loc[g]
		return int(l.local) < shardCovered[l.shard]
	}
	var pendingURLs []string
	for g := coveredPos; g < orderLen; g++ {
		if e.order[g] != "" && !alreadyCovered(g) {
			pendingURLs = append(pendingURLs, e.order[g])
		}
	}
	cb := e.codebook
	e.mu.RUnlock()

	if len(pendingURLs) == 0 {
		st.Docs, st.Epoch = ee.docs, ee.seq
		return st, nil
	}
	if cb == nil {
		return st, fmt.Errorf("core: Refresh needs the frozen feature codebook, which this store lacks " +
			"(built by a distributed pipeline or an older version); run BuildContentIndex once locally")
	}
	words, err := assignExtraction(pipe, cb, pendingURLs)
	if err != nil {
		return st, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Group the delta by shard (global order ⇒ ascending shard-local
	// OIDs) and advance the exact running statistics by it.
	perShardURLs := make([][]string, len(e.shards))
	gsAnn, annTotal := cloneStats(e.annStats, e.annTotal)
	gsImg, imgTotal := cloneStats(e.imgStats, e.imgTotal)
	var thDocsTotal int
	for g := coveredPos; g < orderLen; g++ {
		url := e.order[g]
		if url == "" || alreadyCovered(g) {
			continue
		}
		l := e.loc[g]
		perShardURLs[l.shard] = append(perShardURLs[l.shard], url)
		ann := e.shards[l.shard].annotationOf(l.local)
		annToks := ir.Analyze(ann)
		gsAnn.N++
		annTotal += len(annToks)
		tf, _ := ir.TermFrequencies(annToks)
		for t := range tf {
			gsAnn.DF[t]++
		}
		imgToks := dedupSorted(append([]string(nil), words[url]...))
		gsImg.N++
		imgTotal += len(imgToks)
		for _, t := range imgToks {
			gsImg.DF[t]++
		}
		if ann != "" {
			thDocsTotal++
		}
	}
	gsAnn.AvgDocLen, gsImg.AvgDocLen = 0, 0
	if gsAnn.N > 0 {
		gsAnn.AvgDocLen = float64(annTotal) / float64(gsAnn.N)
	}
	if gsImg.N > 0 {
		gsImg.AvgDocLen = float64(imgTotal) / float64(gsImg.N)
	}
	annVocab := sortedKeys(gsAnn.DF)
	imgVocab := sortedKeys(gsImg.DF)

	perShard := make([]RefreshStats, len(e.shards))
	err = e.fanOut(func(s int, sh *Mirror) error {
		ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", gsAnn)
		ir.SetGlobalStats(sh.DB, InternalSet+"_image", gsImg)
		var serr error
		perShard[s], serr = sh.publishShardDelta(perShardURLs[s], words, annVocab, imgVocab)
		return serr
	})
	for _, sh := range e.shards {
		ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", nil)
		ir.SetGlobalStats(sh.DB, InternalSet+"_image", nil)
	}
	if err != nil {
		// A partial failure may have published on some shards: their
		// documents are now covered (the next refresh's alreadyCovered
		// guard skips them), so the running statistics must be recounted
		// from actual shard state or those documents' df/N/token
		// contributions would be lost for every later refresh. The engine
		// epoch is NOT advanced — queries keep the last consistent vector —
		// and the next successful refresh covers everything.
		e.rebuildRunningStats()
		return st, err
	}
	e.annStats, e.annTotal = gsAnn, annTotal
	e.imgStats, e.imgTotal = gsImg, imgTotal
	e.publishEngineEpochLocked(orderLen)

	nee := e.epoch.Load()
	st.NewDocs, st.Docs, st.Epoch = len(pendingURLs), nee.docs, nee.seq
	for _, ps := range perShard {
		st.Merges += ps.Merges
		if ps.Segments > st.Segments {
			st.Segments = ps.Segments
		}
	}
	return st, nil
}

// publishShardDelta is the engine-driven shard half of a refresh: publish
// the shard's delta (possibly empty — statistics moved regardless) under
// the pre-registered global overrides. The shard thesaurus is the shared
// engine instance, so AddDocs lands in the right place.
func (m *Mirror) publishShardDelta(urls []string, words map[string][]string, annVocab, imgVocab []string) (RefreshStats, error) {
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishDeltaLocked(urls, words, annVocab, imgVocab)
}

// cloneStats deep-copies running statistics so a failed refresh never
// corrupts the engine's bookkeeping.
func cloneStats(gs *ir.GlobalStats, total int) (*ir.GlobalStats, int) {
	out := &ir.GlobalStats{N: gs.N, AvgDocLen: gs.AvgDocLen, DF: make(map[string]int, len(gs.DF))}
	for t, c := range gs.DF {
		out.DF[t] = c
	}
	return out, total
}

// publishEngineEpochLocked swaps in a new engine epoch covering docs
// global positions, pinning every shard's just-published epoch. Callers
// hold e.mu (write).
func (e *ShardedEngine) publishEngineEpochLocked(docs int) {
	e.epochSeq++
	shardEps := make([]*IndexEpoch, len(e.shards))
	for i, sh := range e.shards {
		shardEps[i] = sh.currentEpoch()
	}
	// Crash gaps (order[g] == "" after a WAL-truncating recovery) occupy
	// global positions but hold no document; the wire stamp counts only
	// live documents so it matches the ingest-order prefix length.
	live := 0
	for _, u := range e.order[:docs] {
		if u != "" {
			live++
		}
	}
	e.epoch.Store(&engineEpoch{
		seq:    e.epochSeq,
		docs:   docs,
		live:   live,
		order:  e.order[:docs:docs],
		shards: shardEps,
		thes:   e.thes,
	})
}

// ContentTerms returns the cluster words of a document by global OID.
// Crash gaps (order[oid] == "") resolve to nil, never to another
// document's terms.
func (e *ShardedEngine) ContentTerms(oid bat.OID) []string {
	e.mu.RLock()
	if uint64(oid) >= uint64(len(e.loc)) || e.order[oid] == "" {
		e.mu.RUnlock()
		return nil
	}
	l := e.loc[oid]
	e.mu.RUnlock()
	return e.shards[l.shard].ContentTerms(l.local)
}

// Thesaurus returns the shared association thesaurus.
func (e *ShardedEngine) Thesaurus() *thesaurus.Thesaurus {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.thes
}

// SchemaSource returns the DDL (identical on every shard).
func (e *ShardedEngine) SchemaSource() string { return e.shards[0].SchemaSource() }

// ---- index build (global pipeline) ----

// BuildContentIndex runs the Section 5.1 pipeline ONCE over the global
// collection — clustering and collection statistics are global by nature —
// then distributes each shard's slice of the result. See the type comment
// for why a per-shard build would break cross-shard comparability.
func (e *ShardedEngine) BuildContentIndex(opts IndexOptions) error {
	return e.buildIndex(opts, newLocalPipeline(e.rasterLookup()))
}

// BuildContentIndexDistributed is BuildContentIndex against daemons
// discovered through the data dictionary.
func (e *ShardedEngine) BuildContentIndexDistributed(opts IndexOptions, dictAddr string) error {
	p, err := newRemotePipeline(e.rasterLookup(), dictAddr)
	if err != nil {
		return err
	}
	return e.buildIndex(opts, p)
}

// rasterLookup resolves rasters across shards (routing is pure, so no
// table is needed).
func (e *ShardedEngine) rasterLookup() func(url string) (*media.Image, bool) {
	return func(url string) (*media.Image, bool) {
		return e.shards[e.shardFor(url)].Raster(url)
	}
}

func (e *ShardedEngine) buildIndex(opts IndexOptions, pipe segmentExtractor) error {
	defer pipe.close()
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()

	// Dense global order for the pipeline (skip crash gaps).
	order := make([]string, 0, len(e.urls))
	for _, u := range e.order {
		if u != "" {
			order = append(order, u)
		}
	}
	imageWords, cb, err := runExtraction(pipe, opts, order)
	if err != nil {
		return err
	}

	// Global collection statistics and vocabulary for both CONTREPs, from
	// exactly the token streams the shards will insert.
	anns := e.annotationsLocked()
	annTokens := make([][]string, len(order))
	imgTerms := make([][]string, len(order))
	var thDocs []thesaurus.Doc
	for i, url := range order {
		ann := anns[url]
		annTokens[i] = ir.Analyze(ann)
		imgTerms[i] = dedupSorted(append([]string(nil), imageWords[url]...))
		if ann != "" {
			thDocs = append(thDocs, thesaurus.Doc{Words: annTokens[i], Concepts: imgTerms[i]})
		}
	}
	gsAnn := ir.CollectionStats(annTokens)
	gsImg := ir.CollectionStats(imgTerms)
	annVocab := sortedKeys(gsAnn.DF)
	imgVocab := sortedKeys(gsImg.DF)

	// Per-shard populate, in parallel: register this shard's statistics
	// overrides, install its slice of the content words, union the global
	// vocabulary into its dictionaries, Finalize.
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *Mirror) {
			defer wg.Done()
			ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", gsAnn)
			ir.SetGlobalStats(sh.DB, InternalSet+"_image", gsImg)
			errs[i] = sh.populateShardIndex(imageWords, annVocab, imgVocab)
		}(i, sh)
	}
	wg.Wait()
	// The overrides have served their purpose once Finalize persisted the
	// derived columns; clear them (also on failure) so the package-global
	// registry does not pin shard databases for the process lifetime.
	for _, sh := range e.shards {
		ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", nil)
		ir.SetGlobalStats(sh.DB, InternalSet+"_image", nil)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: indexing shard %d: %w", i, err)
		}
	}

	// One global thesaurus, shared by reference: every shard checkpoints
	// the same state, and feedback reinforcement (logged on shard 0)
	// mutates the one object all query paths read.
	e.thes = thesaurus.Build(thDocs)
	for _, sh := range e.shards {
		sh.setThesaurus(e.thes)
	}

	// Freeze the content model and the exact statistics bookkeeping the
	// incremental refresh path advances; every shard persists the
	// codebook so a reopened store can keep refreshing.
	e.codebook = cb
	e.annStats, e.annTotal = gsAnn, tokenTotal(annTokens)
	e.imgStats, e.imgTotal = gsImg, tokenTotal(imgTerms)
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.codebook = cb
		sh.mu.Unlock()
	}

	// Publish: every shard snapshots its just-built index, then the
	// engine pins the vector as epoch 1 (or the next in sequence).
	for _, sh := range e.shards {
		sh.mu.Lock()
		err := sh.publishEpochLocked()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	e.publishEngineEpochLocked(len(e.order))
	return nil
}

// tokenTotal sums per-document token counts (the integer numerator of
// AvgDocLen).
func tokenTotal(docs [][]string) int {
	total := 0
	for _, d := range docs {
		total += len(d)
	}
	return total
}

// annotationsLocked reads every document's annotation from the shard
// library BATs (annotations are stored data, not engine state). Callers
// hold e.mu.
func (e *ShardedEngine) annotationsLocked() map[string]string {
	out := make(map[string]string, len(e.urls))
	for _, sh := range e.shards {
		annB, ok := sh.DB.BAT(LibrarySet + "_annotation")
		if !ok {
			continue
		}
		for i, u := range sh.order {
			if v, ok := annB.Find(bat.OID(i)); ok {
				s, _ := v.(string)
				out[u] = s
			}
		}
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- queries (the Gather) ----

// An engine epoch is the in-process transport of the one gather: its legs
// scan their shard epochs directly under the gather's shared threshold.

// Stamp derives the wire stamp of a pinned engine epoch. Docs is the live
// document count (crash gaps in the frozen order excluded), precomputed
// at publish.
func (ee *engineEpoch) Stamp() EpochStamp { return EpochStamp{Seq: ee.seq, Docs: ee.live} }

func (ee *engineEpoch) NumShards() int { return len(ee.shards) }

// URLOf resolves a global OID against the epoch's frozen order.
func (ee *engineEpoch) URLOf(oid bat.OID) string {
	if uint64(oid) >= uint64(len(ee.order)) {
		return ""
	}
	return ee.order[oid]
}

func (ee *engineEpoch) Thesaurus() *thesaurus.Thesaurus { return ee.thes }

func (ee *engineEpoch) Leg(s int, q ShardQueryArgs, theta *bat.TopKThreshold) (*ShardLeg, error) {
	return ee.shards[s].leg(q, theta, true)
}

// View pins the serving engine epoch (nil before the first publish).
func (e *ShardedEngine) View() ShardView {
	if ee := e.epoch.Load(); ee != nil {
		return ee
	}
	return nil
}

// liveView evaluates against the live shard databases: moash's
// pre-pipeline browsing of an engine that never published, safe only
// without concurrent ingest.
func (e *ShardedEngine) liveView() ShardView {
	ee := &engineEpoch{shards: make([]*IndexEpoch, len(e.shards))}
	for s, sh := range e.shards {
		ee.shards[s] = &IndexEpoch{DB: sh.DB, Eng: sh.Eng, globals: sh.globalOIDsSnapshot()}
	}
	return ee
}

// PostingsStats reports every shard's postings footprint in the serving
// engine epoch, the plan-cache counters summed over its shard engines,
// plus the process-wide block-scan counters.
func (e *ShardedEngine) PostingsStats() PostingsStats {
	var st PostingsStats
	if ee := e.epoch.Load(); ee != nil {
		for s, ep := range ee.shards {
			st.Stores = append(st.Stores, ep.postingsOf(s)...)
			hits, misses := ep.Eng.PlanCacheStats()
			st.PlanHits += hits
			st.PlanMisses += misses
		}
	}
	st.BlocksDecoded, st.BlocksSkipped = bat.BlockScanStats()
	return st
}

// ReinforceLogged routes feedback reinforcement to shard 0 — the durable
// authority for the shared thesaurus (its WAL carries the feedback
// records; every shard checkpoints the same shared state).
func (e *ShardedEngine) ReinforceLogged(words, concepts []string, relevant bool) error {
	return e.shards[0].reinforceLogged(words, concepts, relevant)
}

// fanOut runs f on every shard concurrently and returns the first error.
func (e *ShardedEngine) fanOut(f func(s int, sh *Mirror) error) error {
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *Mirror) {
			defer wg.Done()
			errs[i] = f(i, sh)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	return nil
}

// ---- persistence ----

// shardDirName is the store subdirectory of one shard.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// ShardedPersistOptions configures OpenShardedPersistent.
type ShardedPersistOptions struct {
	Dir    string // store root; shards live in Dir/shard-NNN
	Shards int    // shard count; 0 = reopen with the stored layout
	// Per-shard pool/WAL knobs, identical to PersistOptions.
	WALSync bool
	Verify  bool
	NoMmap  bool
}

// ShardRecoveryStats aggregates per-shard recovery.
type ShardRecoveryStats struct {
	Shards     int
	BATs       int
	WALRecords int
	WALSkipped int
	TornTails  []int // shard indexes whose WAL tail was truncated
}

// OpenShardedPersistent opens (or initialises) a sharded store: the root
// holds one BAT-buffer-pool directory per shard, each with its own
// manifest, heap files and WAL. Shards recover in parallel — checkpoint
// load plus WAL replay each — and the engine rebuilds the global mapping
// from the shard-local identities. The layout is a stored property of the
// shard manifests: opts.Shards must match an existing store (0 adopts the
// stored count), and a directory holding a standalone store is refused —
// resharding in place is not supported.
func OpenShardedPersistent(opts ShardedPersistOptions) (*ShardedEngine, ShardRecoveryStats, error) {
	var stats ShardRecoveryStats
	if opts.Dir == "" {
		return nil, stats, fmt.Errorf("core: sharded store needs a directory")
	}
	if storage.IsStore(opts.Dir) {
		return nil, stats, fmt.Errorf("core: %s holds a standalone store; resharding in place is not supported", opts.Dir)
	}
	stored := 0
	for {
		if _, err := os.Stat(filepath.Join(opts.Dir, shardDirName(stored))); err != nil {
			break
		}
		stored++
	}
	n := opts.Shards
	switch {
	case stored == 0 && n < 1:
		return nil, stats, fmt.Errorf("core: fresh sharded store needs an explicit shard count")
	case stored == 0:
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, stats, err
		}
	case n == 0:
		n = stored // reopen with the layout the store was built with
	case n != stored:
		return nil, stats, fmt.Errorf("core: %s was built with %d shards, not the requested %d", opts.Dir, stored, n)
	}

	e := &ShardedEngine{
		shards:     make([]*Mirror, n),
		urls:       map[string]struct{}{},
		persistent: true,
		root:       opts.Dir,
	}
	e.Gather = NewGather(e)
	perStats := make([]RecoveryStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.shards[i], perStats[i], errs[i] = OpenPersistent(PersistOptions{
				Dir:        filepath.Join(opts.Dir, shardDirName(i)),
				WALSync:    opts.WALSync,
				Verify:     opts.Verify,
				NoMmap:     opts.NoMmap,
				ShardIndex: i,
				ShardCount: n,
			})
		}(i)
	}
	wg.Wait()
	var firstErr error
	for i, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	if firstErr != nil {
		for _, sh := range e.shards {
			if sh != nil {
				sh.ClosePersistent()
			}
		}
		return nil, stats, firstErr
	}

	stats.Shards = n
	for i, ps := range perStats {
		stats.BATs += ps.BATs
		stats.WALRecords += ps.WALRecords
		stats.WALSkipped += ps.WALSkipped
		if ps.TornTail {
			stats.TornTails = append(stats.TornTails, i)
		}
	}

	if err := e.rebuildGlobalMapping(); err != nil {
		for _, sh := range e.shards {
			sh.ClosePersistent()
		}
		return nil, stats, err
	}

	// Shard 0 is the thesaurus authority: it replayed the feedback WAL.
	// Install its instance everywhere so all query paths share one object
	// (and every shard checkpoints the authoritative state from now on).
	e.thes = e.shards[0].Thesaurus()
	if e.thes != nil {
		for _, sh := range e.shards[1:] {
			sh.setThesaurus(e.thes)
		}
	}

	// Content model + the exact statistics bookkeeping future refreshes
	// advance incrementally (rebuilt from the covered documents, so it
	// reflects replayed publishes too).
	for _, sh := range e.shards {
		if sh.codebook != nil {
			e.codebook = sh.codebook
			break
		}
	}
	e.rebuildRunningStats()

	// Finish deferred deltas: shards replay WAL publish records
	// structurally (inserts only) because beliefs need GLOBAL statistics;
	// now that every shard is open the engine re-registers them, unions
	// the grown vocabulary everywhere, and refinalizes ALL shards (a
	// replayed delta moves df/N/avgdl for every shard, exactly as the
	// live refresh did).
	deferred := false
	allIndexed := true
	for _, sh := range e.shards {
		if sh.deferredDelta {
			deferred = true
		}
		if !sh.Indexed() {
			allIndexed = false
		}
	}
	if deferred && allIndexed {
		var th []thesaurus.Doc
		for _, sh := range e.shards {
			th = append(th, sh.deferredThes...)
			sh.deferredThes = nil
		}
		if len(th) > 0 {
			if e.thes == nil {
				e.thes = thesaurus.Build(th)
				for _, sh := range e.shards {
					sh.setThesaurus(e.thes)
				}
			} else {
				e.thes.AddDocs(th)
			}
		}
		annVocab := sortedKeys(e.annStats.DF)
		imgVocab := sortedKeys(e.imgStats.DF)
		merged := make([]int, len(e.shards))
		err := e.fanOut(func(s int, sh *Mirror) error {
			ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", e.annStats)
			ir.SetGlobalStats(sh.DB, InternalSet+"_image", e.imgStats)
			if err := ir.EnsureDictTerms(sh.DB, InternalSet+"_annotation", annVocab); err != nil {
				return err
			}
			if err := ir.EnsureDictTerms(sh.DB, InternalSet+"_image", imgVocab); err != nil {
				return err
			}
			var err error
			merged[s], err = sh.finishDeferredDelta()
			return err
		})
		for _, n := range merged { // stashed merges that replayed after all
			stats.WALRecords += n
			stats.WALSkipped -= n
		}
		for _, sh := range e.shards {
			ir.SetGlobalStats(sh.DB, InternalSet+"_annotation", nil)
			ir.SetGlobalStats(sh.DB, InternalSet+"_image", nil)
		}
		if err != nil {
			for _, sh := range e.shards {
				sh.ClosePersistent()
			}
			return nil, stats, err
		}
	}
	if allIndexed {
		for _, sh := range e.shards {
			if sh.epochSeq > e.epochSeq {
				e.epochSeq = sh.epochSeq
			}
		}
		e.mu.Lock()
		e.publishEngineEpochLocked(e.coveredPrefixLocked())
		e.mu.Unlock()
	}
	return e, stats, nil
}

// coveredPrefixLocked computes the longest prefix of the global order in
// which every (non-gap) position's document is covered by its shard's
// internal set — what the recovered engine epoch may claim. Documents a
// shard recovered beyond this prefix (possible only after a torn-tail
// WAL loss on a sibling shard) stay served shard-exactly and are skipped
// by later refreshes. Callers hold e.mu.
func (e *ShardedEngine) coveredPrefixLocked() int {
	covered := make([]int, len(e.shards))
	for s, sh := range e.shards {
		covered[s] = sh.covered()
	}
	docs := 0
	for g := 0; g < len(e.order); g++ {
		if e.order[g] != "" {
			l := e.loc[g]
			if int(l.local) >= covered[l.shard] {
				break
			}
		}
		docs = g + 1
	}
	return docs
}

// rebuildRunningStats recomputes the exact global-statistics bookkeeping
// from every shard's covered documents (annotations are stored data, the
// content words live in contentTerms).
func (e *ShardedEngine) rebuildRunningStats() {
	var annDocs, imgDocs [][]string
	for _, sh := range e.shards {
		sh.mu.RLock()
		covered := sh.coveredLocked()
		annB, _ := sh.DB.BAT(LibrarySet + "_annotation")
		for i := 0; i < covered; i++ {
			var ann string
			if annB != nil {
				if v, ok := annB.Find(bat.OID(i)); ok {
					ann, _ = v.(string)
				}
			}
			annDocs = append(annDocs, ir.Analyze(ann))
			imgDocs = append(imgDocs, sh.contentTerms[bat.OID(i)])
		}
		sh.mu.RUnlock()
	}
	e.annStats, e.annTotal = ir.CollectionStats(annDocs), tokenTotal(annDocs)
	e.imgStats, e.imgTotal = ir.CollectionStats(imgDocs), tokenTotal(imgDocs)
}

// rebuildGlobalMapping reconstructs order/loc from the shard-local
// (local OID → global OID) maps the shards recovered. A gap — a global
// OID no shard claims — means a shard lost WAL-tail inserts in a crash
// (possible without -wal-sync); the slot is kept empty rather than
// renumbering, so surviving documents keep their identity.
func (e *ShardedEngine) rebuildGlobalMapping() error {
	maxG := -1
	for _, sh := range e.shards {
		for _, g := range sh.globalOIDs {
			if int(g) > maxG {
				maxG = int(g)
			}
		}
	}
	e.order = make([]string, maxG+1)
	e.loc = make([]shardLoc, maxG+1)
	for s, sh := range e.shards {
		if len(sh.globalOIDs) != len(sh.order) {
			return fmt.Errorf("core: shard %d maps %d of %d documents", s, len(sh.globalOIDs), len(sh.order))
		}
		for i, g := range sh.globalOIDs {
			url := sh.order[i]
			if e.order[g] != "" {
				return fmt.Errorf("core: global OID %d claimed by both %q and %q", g, e.order[g], url)
			}
			e.order[g] = url
			e.loc[g] = shardLoc{shard: s, local: bat.OID(i)}
			e.urls[url] = struct{}{}
		}
	}
	return nil
}

// Persistent reports whether the engine was opened with
// OpenShardedPersistent.
func (e *ShardedEngine) Persistent() bool { return e.persistent }

// Checkpoint flushes every shard in parallel (each shard's manifest swap
// is its own atomic commit point; there is no cross-shard transaction —
// every shard is individually consistent, and the global mapping is
// shard-local data, so a crash between shard checkpoints loses at most
// unsynced WAL tails, never consistency). Stats are summed.
func (e *ShardedEngine) Checkpoint() (storage.CheckpointStats, error) {
	var total storage.CheckpointStats
	if !e.persistent {
		return total, fmt.Errorf("core: Checkpoint on a non-persistent engine")
	}
	var mu sync.Mutex
	err := e.fanOut(func(s int, sh *Mirror) error {
		st, err := sh.Checkpoint()
		if err != nil {
			return err
		}
		mu.Lock()
		total.Written += st.Written
		total.Skipped += st.Skipped
		total.Bytes += st.Bytes
		mu.Unlock()
		return nil
	})
	return total, err
}

// ClosePersistent releases every shard's WAL and pool.
func (e *ShardedEngine) ClosePersistent() error {
	var firstErr error
	for _, sh := range e.shards {
		if err := sh.ClosePersistent(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Serve runs the standard RPC server over the sharded engine; clients see
// the same protocol a single store serves.
func (e *ShardedEngine) Serve(addr, dictAddr string) (string, func(), error) {
	return Serve(e, addr, dictAddr)
}
