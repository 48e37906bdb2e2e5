// Package dist is the networked counterpart of core.ShardedEngine: a
// RouterEngine implements the same core.Retriever surface, but its shard
// members are remote mirrord daemons reached over net/rpc instead of
// in-process stores. The router owns everything that is global by nature
// — ingestion order (global OIDs), the extraction/clustering pipeline,
// collection statistics, the association thesaurus, the epoch vector —
// and the shards own storage, WAL durability and per-shard query
// evaluation.
//
// Exactness across the wire rests on the same invariants the in-process
// engine enforces, plus one distributed addition:
//
//   - Global identity: documents are routed by core.ShardOf and carry
//     their global OID to the shard; replies come back remapped, so
//     scores AND tie-breaks are exactly a single store's.
//   - Global statistics: every publish round ships the engine-wide
//     collection statistics to every shard, so per-shard beliefs are
//     computed against the global collection.
//   - Tag-pinned epochs: each publish round carries a monotone tag; a
//     query is evaluated on every shard at the epoch carrying the
//     router's current tag (shards retain a short epoch history), so a
//     scatter never mixes rounds even while a new publish is landing.
//     The router's epoch vector advances only after EVERY shard acked
//     the round — the oracle invariant "every served result is exact
//     for some published epoch" holds end-to-end.
//
// Each shard may have replication followers (WAL shipping; see
// core/repl.go). Reads fail over primary → followers with bounded
// retries and backoff; writes go to the primary only.
package dist

import (
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/dict"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/storage"
	"mirror/internal/thesaurus"
)

// The router IS a Retriever: core.Serve exposes it under the exact RPC
// surface a single store serves, so clients cannot tell the difference.
var _ core.Retriever = (*RouterEngine)(nil)

// Options tunes the router's failure behavior.
type Options struct {
	Timeout time.Duration // per-RPC bound; 0 = 5s
	Retries int           // extra failover rounds per call; <0 = 0, default 2
	Backoff time.Duration // base backoff between rounds (doubles); 0 = 50ms
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff == 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// replica is one addressable store (a primary or follower) with a lazily
// established, serially used connection.
type replica struct {
	addr string
	mu   sync.Mutex
	c    *core.Client
}

// do runs one call against the replica, dialing on demand. Transport-class
// failures poison the connection so the next call redials.
func (r *replica) do(timeout time.Duration, f func(*core.Client) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c == nil {
		c, err := core.DialMirrorTimeout(r.addr, timeout)
		if err != nil {
			return err
		}
		r.c = c
	}
	err := f(r.c)
	if err != nil && transportErr(err) {
		r.c.Close()
		r.c = nil
	}
	return err
}

func (r *replica) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
}

// transportErr classifies an error as connection-level (vs an application
// error the server computed and sent back).
func transportErr(err error) bool {
	var se rpc.ServerError
	return !errors.As(err, &se) && !errors.Is(err, core.ErrNotIndexed) &&
		!errors.Is(err, core.ErrEpochRetired) && !errors.Is(err, core.ErrFollower)
}

// failover reports whether another replica (or a retry round) may be able
// to serve the call: transport failures, a follower still catching up
// (ErrEpochRetired / ErrNotIndexed), or a misdirected write (ErrFollower).
// Every other application error is authoritative and returned verbatim.
func failover(err error) bool {
	if errors.Is(err, core.ErrEpochRetired) || errors.Is(err, core.ErrNotIndexed) ||
		errors.Is(err, core.ErrFollower) {
		return true
	}
	var se rpc.ServerError
	return !errors.As(err, &se)
}

// shardGroup is one shard's replica set.
type shardGroup struct {
	primary   *replica
	followers []*replica
}

type shardLoc struct {
	shard int
	local int
}

// epochVector is the router's published serving state: every shard
// answers queries at the epoch carrying Tag, which covers the first Docs
// documents of the global ingestion order. It is the networked transport
// of core's one gather (a core.ShardView): its legs run on the shard
// daemons through callShard's failover. The order prefix and the
// thesaurus are pinned at publish, so queries never take the router's
// lock.
type epochVector struct {
	Tag   uint64
	Docs  int
	e     *RouterEngine
	order []string // frozen prefix of the global ingestion order (Docs long)
	thes  *thesaurus.Thesaurus
}

// RouterEngine scatter-gathers the full Retriever surface over remote
// shard daemons; its query half is core's Gather over epochVector legs.
type RouterEngine struct {
	*core.Gather

	n       int
	timeout time.Duration
	retries int
	backoff time.Duration

	groups []*shardGroup

	mu         sync.RWMutex
	order      []string // global ingestion order; order[g] = URL of global OID g
	urls       map[string]struct{}
	locs       []shardLoc
	localCount []int
	annToks    map[string][]string // ir.Analyze of each annotation, once at AddImage
	rasters    map[string]*media.Image
	terms      map[string][]string // deduped cluster words by URL (post-build)
	codebook   *core.Codebook
	thes       *thesaurus.Thesaurus
	schema     string

	buildMu sync.Mutex
	vecPtr  atomic.Pointer[epochVector]

	// ctl holds dedicated control connections for mid-flight RaiseTheta
	// pushes — the query connections are serially occupied by the very
	// scans being raised. pushes counts raises sent (observability).
	pushes atomic.Int64
	ctlMu  sync.Mutex
	ctl    map[string]*core.Client
}

// NewRouter builds a router over explicit shard replica sets:
// shards[i][0] is shard i's primary, the rest are its followers.
func NewRouter(shards [][]string, opts Options) (*RouterEngine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("dist: router needs at least one shard")
	}
	opts = opts.withDefaults()
	e := &RouterEngine{
		n:          len(shards),
		timeout:    opts.Timeout,
		retries:    opts.Retries,
		backoff:    opts.Backoff,
		urls:       map[string]struct{}{},
		localCount: make([]int, len(shards)),
		annToks:    map[string][]string{},
		rasters:    map[string]*media.Image{},
		terms:      map[string][]string{},
	}
	e.Gather = core.NewGather(e)
	for i, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("dist: shard %d has no replicas", i)
		}
		g := &shardGroup{primary: &replica{addr: reps[0]}}
		for _, addr := range reps[1:] {
			g.followers = append(g.followers, &replica{addr: addr})
		}
		e.groups = append(e.groups, g)
	}
	return e, nil
}

// Discover builds a router from the data dictionary: shard daemons
// register as kind "mirror-shard" named "shard-<i>-of-<n>" (primaries)
// and "shard-<i>-of-<n>-follower…" (followers). Every primary must be
// registered; followers are optional.
func Discover(dictAddr string, opts Options) (*RouterEngine, error) {
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		return nil, err
	}
	defer dc.Close()
	infos, err := dc.List("mirror-shard")
	if err != nil {
		return nil, err
	}
	n := 0
	for _, in := range infos {
		var i, of int
		if _, err := fmt.Sscanf(in.Name, "shard-%d-of-%d", &i, &of); err == nil && of > n {
			n = of
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("dist: no mirror-shard daemons registered in the dictionary")
	}
	shards := make([][]string, n)
	for i := 0; i < n; i++ {
		primary := fmt.Sprintf("shard-%d-of-%d", i, n)
		for _, in := range infos {
			if in.Name == primary {
				shards[i] = append([]string{in.Addr}, shards[i]...)
			} else if strings.HasPrefix(in.Name, primary+"-follower") {
				shards[i] = append(shards[i], in.Addr)
			}
		}
		found := false
		for _, in := range infos {
			if in.Name == primary {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("dist: shard %d/%d primary not registered", i, n)
		}
	}
	return NewRouter(shards, opts)
}

// NumShards reports the shard count.
func (e *RouterEngine) NumShards() int { return e.n }

// MinReplicas reports the smallest replica-set size across shards
// (primary included) — what a -replicas floor is checked against.
func (e *RouterEngine) MinReplicas() int {
	min := 0
	for i, g := range e.groups {
		if n := 1 + len(g.followers); i == 0 || n < min {
			min = n
		}
	}
	return min
}

// Topology describes the serving topology (moash \topology).
func (e *RouterEngine) Topology() string {
	reps := 0
	for _, g := range e.groups {
		reps += 1 + len(g.followers)
	}
	return fmt.Sprintf("distributed router (%d networked shards, %d replicas)", e.n, reps)
}

// callShard runs f against shard s with bounded failover: the primary
// first, then (for reads) each follower, with exponential backoff between
// rounds. Writes never leave the primary — a follower cannot accept them.
func (e *RouterEngine) callShard(s int, write bool, f func(*core.Client) error) error {
	g := e.groups[s]
	reps := []*replica{g.primary}
	if !write {
		reps = append(reps, g.followers...)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		for _, r := range reps {
			err := r.do(e.timeout, f)
			if err == nil {
				return nil
			}
			lastErr = err
			if !failover(err) {
				return err
			}
		}
		if attempt >= e.retries {
			return lastErr
		}
		time.Sleep(e.backoff << uint(attempt))
	}
}

// ---- ingestion ----

// AddImage routes one document to its home shard and records its global
// identity. Exactly-once across lost replies rides on idempotence: a
// retried insert that already landed answers with the library's duplicate
// contract, which the router (knowing it never recorded this URL) reads
// as the lost ack.
func (e *RouterEngine) AddImage(url, annotation string, img *media.Image) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.urls[url]; dup {
		return fmt.Errorf("core: image %q already in library", url)
	}
	s := core.ShardOf(url, e.n)
	g := uint64(len(e.order))
	var walWarn error
	err := e.callShard(s, true, func(c *core.Client) error {
		_, err := c.ShardIngest(url, annotation, nil, g)
		return err
	})
	if err != nil {
		msg := err.Error()
		switch {
		case strings.Contains(msg, "already in library"):
			// Lost-ack retry, or a re-crawl over surviving shard state after
			// a router restart: the document is in the shard. Record it.
		case strings.Contains(msg, "ingested but not WAL-logged"):
			walWarn = err // in the shard, reduced durability — record it
		default:
			return err
		}
	}
	e.order = append(e.order, url)
	e.urls[url] = struct{}{}
	e.locs = append(e.locs, shardLoc{shard: s, local: e.localCount[s]})
	e.localCount[s]++
	e.annToks[url] = ir.Analyze(annotation)
	if img != nil {
		e.rasters[url] = img
	}
	return walWarn
}

// AddRaster re-attaches footage to an already-ingested URL (rasters live
// with the router, which runs the extraction pipeline).
func (e *RouterEngine) AddRaster(url string, img *media.Image) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.urls[url]; !ok {
		return fmt.Errorf("core: %q not in library", url)
	}
	e.rasters[url] = img
	return nil
}

// Raster returns the held raster for a URL.
func (e *RouterEngine) Raster(url string) (*media.Image, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	img, ok := e.rasters[url]
	return img, ok
}

// Size reports the number of library items across all shards.
func (e *RouterEngine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// URLs returns the item URLs in global ingestion order.
func (e *RouterEngine) URLs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// Current reports whether the vector covers every ingested document.
func (e *RouterEngine) Current() bool {
	vec := e.vecPtr.Load()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return vec != nil && vec.Docs == len(e.order)
}

// Pending reports how many ingested documents the vector does not cover.
func (e *RouterEngine) Pending() int {
	vec := e.vecPtr.Load()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if vec == nil {
		return len(e.order)
	}
	return len(e.order) - vec.Docs
}

// ContentTerms returns the cluster words of a document by global OID.
func (e *RouterEngine) ContentTerms(oid bat.OID) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if uint64(oid) >= uint64(len(e.order)) {
		return nil
	}
	return e.terms[e.order[oid]]
}

// Thesaurus returns the router's association thesaurus (the global
// authority; shard-local thesauri only serve shard-direct queries).
func (e *RouterEngine) Thesaurus() *thesaurus.Thesaurus {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.thes
}

// SchemaSource returns the DDL of the served database (probed from the
// shards and cached).
func (e *RouterEngine) SchemaSource() string {
	e.mu.RLock()
	cached := e.schema
	e.mu.RUnlock()
	if cached != "" {
		return cached
	}
	var src string
	for s := 0; s < e.n; s++ {
		err := e.callShard(s, false, func(c *core.Client) error {
			var serr error
			src, serr = c.Schema()
			return serr
		})
		if err == nil && src != "" {
			break
		}
	}
	e.mu.Lock()
	e.schema = src
	e.mu.Unlock()
	return src
}

// Persistent reports false: the router itself holds no store (durability
// lives with the shard daemons; Checkpoint fans out to them).
func (e *RouterEngine) Persistent() bool { return false }

// Checkpoint asks every shard primary to checkpoint, summing the stats.
func (e *RouterEngine) Checkpoint() (storage.CheckpointStats, error) {
	var total storage.CheckpointStats
	for s := 0; s < e.n; s++ {
		var rep *core.CheckpointReply
		err := e.callShard(s, true, func(c *core.Client) error {
			var cerr error
			rep, cerr = c.Checkpoint()
			return cerr
		})
		if err != nil {
			return total, fmt.Errorf("dist: checkpoint shard %d: %w", s, err)
		}
		total.Written += rep.Written
		total.Skipped += rep.Skipped
		total.Bytes += rep.Bytes
	}
	return total, nil
}

// ClosePersistent closes every replica connection (shard daemons keep
// running; they own their stores).
func (e *RouterEngine) ClosePersistent() error {
	e.ctlMu.Lock()
	for addr, c := range e.ctl {
		c.Close()
		delete(e.ctl, addr)
	}
	e.ctlMu.Unlock()
	for _, g := range e.groups {
		g.primary.close()
		for _, f := range g.followers {
			f.close()
		}
	}
	return nil
}

// Segments reports nothing: segment layout is shard-daemon-local
// introspection (ask the daemons directly).
func (e *RouterEngine) Segments() []core.SegmentsInfo { return nil }

// PostingsStats likewise reports only the zero footprint.
func (e *RouterEngine) PostingsStats() core.PostingsStats { return core.PostingsStats{} }

// BlockScanStats sums the shard primaries' block-max scan counters over
// one parallel best-effort round: the router process runs no scans
// itself, so a process-local read would report zero work for the whole
// deployment. Unreachable members contribute nothing — a single attempt
// per primary, no failover, so a dead shard costs one fast dial error
// (or at worst one RPC timeout) instead of the full retry schedule. The
// sum is therefore a lower bound during partitions, which is the right
// bias for an observability counter.
func (e *RouterEngine) BlockScanStats() (decoded, skipped int64) {
	var dec, skp atomic.Int64
	var wg sync.WaitGroup
	for _, g := range e.groups {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			_ = r.do(e.timeout, func(c *core.Client) error {
				st, err := c.Stats()
				if err != nil {
					return err
				}
				dec.Add(st.BlocksDecoded)
				skp.Add(st.BlocksSkipped)
				return nil
			})
		}(g.primary)
	}
	wg.Wait()
	return dec.Load(), skp.Load()
}

// ---- index lifecycle ----

// rasterLookup resolves rasters from the router's own holdings.
func (e *RouterEngine) rasterLookup() func(url string) (*media.Image, bool) {
	return func(url string) (*media.Image, bool) {
		e.mu.RLock()
		defer e.mu.RUnlock()
		img, ok := e.rasters[url]
		return img, ok
	}
}

// BuildContentIndex runs the extraction/clustering pipeline ONCE globally
// (clustering and collection statistics are global by nature), then fans
// each shard's slice out as a self-contained full publish under the next
// tag. The epoch vector advances only when every shard acked.
func (e *RouterEngine) BuildContentIndex(opts core.IndexOptions) error {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()

	order := append([]string(nil), e.order...)
	imageWords, cb, err := core.RunLocalExtraction(opts, e.rasterLookupLocked(), order)
	if err != nil {
		return err
	}

	annTokens := make([][]string, len(order))
	imgTerms := make([][]string, len(order))
	var thDocs []thesaurus.Doc
	for i, url := range order {
		annTokens[i] = e.annToks[url]
		imgTerms[i] = dedupTerms(imageWords[url])
		if len(annTokens[i]) > 0 {
			thDocs = append(thDocs, thesaurus.Doc{Words: annTokens[i], Concepts: imgTerms[i]})
		}
	}
	gsAnn := ir.CollectionStats(annTokens)
	gsImg := ir.CollectionStats(imgTerms)

	tag := uint64(1)
	if vec := e.vecPtr.Load(); vec != nil {
		tag = vec.Tag + 1
	}

	perShard := make([][]string, e.n)
	words := make([]map[string][]string, e.n)
	for s := range words {
		words[s] = map[string][]string{}
	}
	for g, url := range order {
		l := e.locs[g]
		perShard[l.shard] = append(perShard[l.shard], url)
		words[l.shard][url] = imageWords[url]
	}

	if err := e.fanOutPublish(perShard, words, gsAnn, gsImg, cb, true, tag, nil); err != nil {
		return err
	}

	// Full ack: commit the global model and publish the vector.
	for i, url := range order {
		e.terms[url] = imgTerms[i]
	}
	e.codebook = cb
	e.thes = thesaurus.Build(thDocs)
	e.vecPtr.Store(&epochVector{Tag: tag, Docs: len(order), e: e, order: order, thes: e.thes})
	return nil
}

// rasterLookupLocked is rasterLookup for callers already holding e.mu.
func (e *RouterEngine) rasterLookupLocked() func(url string) (*media.Image, bool) {
	return func(url string) (*media.Image, bool) {
		img, ok := e.rasters[url]
		return img, ok
	}
}

// BuildContentIndexDistributed is refused: the router already IS the
// distributed face; its extraction runs in-process against its own
// holdings (daemon-backed extraction composes with the in-process
// engine, not with the router).
func (e *RouterEngine) BuildContentIndexDistributed(core.IndexOptions, string) error {
	return fmt.Errorf("dist: the router runs extraction locally; use BuildContentIndex")
}

// fanOutPublish ships one publish round to every shard primary in
// parallel. successTh, when non-nil, receives each shard index whose
// publish acked (refresh uses it to fold thesaurus docs exactly for the
// slices that landed, mirroring the in-process engine's shared-object
// behavior under partial failure).
func (e *RouterEngine) fanOutPublish(perShard [][]string, words []map[string][]string,
	gsAnn, gsImg *ir.GlobalStats, cb *core.Codebook, full bool, tag uint64, acked func(s int)) error {
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	var ackMu sync.Mutex
	for s := 0; s < e.n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			args := core.ShardPublishArgs{
				URLs: perShard[s], Words: words[s],
				AnnStats: gsAnn, ImgStats: gsImg,
				Codebook: cb, Full: full, Tag: tag,
			}
			errs[s] = e.callShard(s, true, func(c *core.Client) error {
				_, err := c.ShardPublish(args)
				return err
			})
			if errs[s] == nil && acked != nil {
				ackMu.Lock()
				acked(s)
				ackMu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: publish shard %d: %w", s, err)
		}
	}
	return nil
}

// Refresh incrementally indexes every pending document: frozen-codebook
// assignment runs router-side over the delta, the collection statistics
// are recomputed over the full covered prefix (identical to a one-shot
// build — integer bookkeeping over the same token streams), and every
// shard republishes under the new statistics and the next tag, EVEN
// shards with an empty delta (their beliefs must move). The vector
// advances only on a full ack; a partially applied round is repaired by
// the next Refresh, which probes per-shard coverage and re-sends only
// what is missing under a fresh tag.
func (e *RouterEngine) Refresh() (core.RefreshStats, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	var st core.RefreshStats

	vec := e.vecPtr.Load()
	if vec == nil {
		return st, fmt.Errorf("core: Refresh: %w", core.ErrNotIndexed)
	}

	// Probe per-shard coverage: a shard that applied a failed round's
	// slice already covers those documents; re-publishing them would
	// corrupt its internal set.
	shardCovered := make([]int, e.n)
	for s := 0; s < e.n; s++ {
		var rep *core.ShardStateReply
		err := e.callShard(s, true, func(c *core.Client) error {
			var serr error
			rep, serr = c.ShardState()
			return serr
		})
		if err != nil {
			return st, fmt.Errorf("dist: probe shard %d: %w", s, err)
		}
		shardCovered[s] = rep.Covered
	}

	e.mu.RLock()
	orderLen := len(e.order)
	var pendingURLs []string
	for g := vec.Docs; g < orderLen; g++ {
		l := e.locs[g]
		if l.local >= shardCovered[l.shard] {
			pendingURLs = append(pendingURLs, e.order[g])
		}
	}
	cb := e.codebook
	e.mu.RUnlock()

	if orderLen == vec.Docs {
		st.Docs, st.Epoch = vec.Docs, int64(vec.Tag)
		return st, nil
	}
	if cb == nil {
		return st, fmt.Errorf("dist: Refresh needs the frozen feature codebook; run BuildContentIndex once")
	}
	assigned, err := core.AssignLocalExtraction(cb, e.rasterLookup(), pendingURLs)
	if err != nil {
		return st, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Commit the delta's terms before fanning out: a shard publish that
	// lands makes those documents servable, and the router must be able
	// to answer ContentTerms/session queries about them even if the round
	// as a whole fails.
	for _, url := range pendingURLs {
		e.terms[url] = dedupTerms(assigned[url])
	}

	// Recompute the global statistics from scratch over the full covered
	// prefix — same token streams as a one-shot build, so beliefs are
	// identical to the in-process engine's running bookkeeping.
	annTokens := make([][]string, orderLen)
	imgTerms := make([][]string, orderLen)
	for g := 0; g < orderLen; g++ {
		url := e.order[g]
		annTokens[g] = e.annToks[url]
		imgTerms[g] = e.terms[url]
	}
	gsAnn := ir.CollectionStats(annTokens)
	gsImg := ir.CollectionStats(imgTerms)

	// Group the per-shard deltas (global order ⇒ ascending shard-local
	// positions) and collect the thesaurus docs each slice carries.
	perShard := make([][]string, e.n)
	words := make([]map[string][]string, e.n)
	thDocsByShard := make([][]thesaurus.Doc, e.n)
	for s := range words {
		words[s] = map[string][]string{}
	}
	for g := vec.Docs; g < orderLen; g++ {
		url := e.order[g]
		l := e.locs[g]
		if l.local < shardCovered[l.shard] {
			continue
		}
		perShard[l.shard] = append(perShard[l.shard], url)
		words[l.shard][url] = assigned[url]
		if toks := e.annToks[url]; len(toks) > 0 {
			thDocsByShard[l.shard] = append(thDocsByShard[l.shard],
				thesaurus.Doc{Words: toks, Concepts: e.terms[url]})
		}
	}

	tag := vec.Tag + 1
	ferr := e.fanOutPublish(perShard, words, gsAnn, gsImg, nil, false, tag, func(s int) {
		// Mirror the in-process shared thesaurus: docs whose shard publish
		// landed are learnt even if the round fails elsewhere (the repair
		// round skips them via the coverage probe).
		if e.thes != nil {
			e.thes.AddDocs(thDocsByShard[s])
		}
	})
	if ferr != nil {
		return st, ferr
	}
	e.vecPtr.Store(&epochVector{Tag: tag, Docs: orderLen, e: e, order: e.order[:orderLen:orderLen], thes: e.thes})
	st.NewDocs, st.Docs, st.Epoch = len(pendingURLs), orderLen, int64(tag)
	return st, nil
}

// ---- scatter-gather queries (core.Gather over epochVector legs) ----

// View pins the serving epoch vector (nil before the first build).
func (e *RouterEngine) View() core.ShardView {
	if vec := e.vecPtr.Load(); vec != nil {
		return vec
	}
	return nil
}

// Stamp is the epoch-vector stamp: Seq is the publish tag, Docs the
// covered prefix of the global ingestion order.
func (v *epochVector) Stamp() core.EpochStamp {
	return core.EpochStamp{Seq: int64(v.Tag), Docs: v.Docs}
}

func (v *epochVector) NumShards() int { return v.e.n }

// URLOf resolves a global OID through the vector's frozen order.
func (v *epochVector) URLOf(oid bat.OID) string {
	if uint64(oid) >= uint64(len(v.order)) {
		return ""
	}
	return v.order[oid]
}

// Thesaurus is the router's thesaurus as of the vector's publish (the
// global authority; shard-local thesauri only serve shard-direct queries).
func (v *epochVector) Thesaurus() *thesaurus.Thesaurus { return v.thes }

// Leg runs one scatter leg on shard s at the vector's tag, failing over
// across the shard's replicas. Each attempt carries the shared
// threshold's current height as its floor (-Inf when the gather hands
// the leg none: an unseeded one-leg view).
func (v *epochVector) Leg(s int, q core.ShardQueryArgs, theta *bat.TopKThreshold) (*core.ShardLeg, error) {
	q.Tag = v.Tag
	var leg *core.ShardLeg
	err := v.e.callShard(s, false, func(c *core.Client) error {
		q.ThetaFloor = math.Inf(-1)
		if theta != nil {
			q.ThetaFloor = theta.Load()
		}
		var err error
		leg, err = c.ShardQuery(q)
		return err
	})
	return leg, err
}

// ThetaRose pushes a risen threshold into the shards whose legs are still
// running, over dedicated control connections (each query connection is
// serially occupied by the very scan being raised). The whole replica set
// of each running shard is addressed — failover means the router cannot
// know which member a leg landed on; the others treat the unknown scan id
// as a no-op. Best-effort: a lost push costs pruning, never correctness.
func (v *epochVector) ThetaRose(scanID uint64, th float64, running []int) {
	e := v.e
	for _, s := range running {
		g := e.groups[s]
		for _, r := range append([]*replica{g.primary}, g.followers...) {
			addr := r.addr
			e.pushes.Add(1)
			go func() {
				c, err := e.ctlClient(addr)
				if err != nil {
					return
				}
				if err := c.RaiseTheta(scanID, th); err != nil && transportErr(err) {
					e.dropCtl(addr, c)
				}
			}()
		}
	}
}

// ctlClient returns the shared control connection to addr, dialing on
// demand. net/rpc clients multiplex concurrent calls, so one connection
// per member serves every in-flight push.
func (e *RouterEngine) ctlClient(addr string) (*core.Client, error) {
	e.ctlMu.Lock()
	defer e.ctlMu.Unlock()
	if c, ok := e.ctl[addr]; ok {
		return c, nil
	}
	c, err := core.DialMirrorTimeout(addr, e.timeout)
	if err != nil {
		return nil, err
	}
	if e.ctl == nil {
		e.ctl = map[string]*core.Client{}
	}
	e.ctl[addr] = c
	return c, nil
}

// dropCtl poisons a control connection after a transport failure so the
// next push redials.
func (e *RouterEngine) dropCtl(addr string, c *core.Client) {
	e.ctlMu.Lock()
	if e.ctl[addr] == c {
		delete(e.ctl, addr)
	}
	e.ctlMu.Unlock()
	c.Close()
}

// ThetaStreamed reports how many mid-flight threshold raises this router
// has pushed (benchmark/observability counter).
func (e *RouterEngine) ThetaStreamed() int64 { return e.pushes.Load() }

// ReinforceLogged applies feedback to the router's thesaurus (what its
// query expansion reads) and WAL-logs it on shard 0's primary — the
// durable authority, mirroring the in-process engine's routing.
func (e *RouterEngine) ReinforceLogged(words, concepts []string, relevant bool) error {
	e.mu.Lock()
	if e.thes != nil {
		e.thes.Reinforce(words, concepts, relevant)
	}
	e.mu.Unlock()
	return e.callShard(0, true, func(c *core.Client) error {
		return c.Reinforce(words, concepts, relevant)
	})
}

// dedupTerms sort-dedups a term list (the shard-insert normal form).
func dedupTerms(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			out[n] = t
			n++
		}
	}
	return out[:n]
}
