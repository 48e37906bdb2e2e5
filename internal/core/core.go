// Package core is the Mirror DBMS: the integrated multimedia database of
// the paper. It wires the Moa logical algebra (over the BAT physical
// layer), the CONTREP inference-network retrieval structure, the feature /
// clustering / thesaurus daemons and the storage layer into the system the
// demo presents: insert images and annotations, run the extraction
// pipeline, and query by text, by content, or by both (dual coding), with
// relevance feedback.
//
// Persistence has one writer and one reader of the same store (see
// ARCHITECTURE.md §"On-disk format"):
//
//   - Load opens a store's last checkpoint read-only through the BAT
//     buffer pool in internal/storage; the loaded instance owns private
//     memory, keeps no file handles and ignores the WAL.
//   - OpenPersistent keeps the pool open for the life of the process:
//     BATs load zero-copy (mmap) where the platform allows, every
//     insert and relevance-feedback event is appended to a write-ahead
//     log, and Checkpoint flushes only dirty BATs and truncates the
//     WAL. Restart recovery = last checkpoint + WAL replay. cmd/mirrord
//     exposes this mode through its -store flag and a Checkpoint RPC.
//
// Concurrency: one RWMutex guards the instance's mutable metadata;
// mutations take the write lock and log to the WAL before releasing it,
// so WAL order equals apply order. Query paths are lock-free in a
// stronger sense since the online-indexing rework: every ranked query
// pins the current IndexEpoch — an immutable snapshot database of frozen
// BAT views — with a single atomic load (epoch.go), so inserts, delta
// refreshes (Refresh), segment merges and checkpoints never block a
// query and can never be observed half-applied. The thesaurus, which
// relevance feedback and delta publishes mutate between checkpoints,
// synchronises internally.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/moa"
	"mirror/internal/storage"
	"mirror/internal/thesaurus"
)

// Set names of the demo schema (Section 5.2 of the paper).
const (
	LibrarySet  = "ImageLibrary"
	InternalSet = "ImageLibraryInternal"
)

// librarySchema is the application programmer's schema from the paper...
const librarySchema = `
define ImageLibrary as SET<TUPLE<
	Atomic<URL>: source,
	Atomic<Text>: annotation,
	Atomic<Image>: image
>>;`

// internalSchema ...and the internal schema the daemons derive from it.
const internalSchema = `
define ImageLibraryInternal as SET<TUPLE<
	Atomic<URL>: source,
	CONTREP<Text>: annotation,
	CONTREP<Image>: image
>>;`

// Mirror is one Mirror DBMS instance.
type Mirror struct {
	mu  sync.RWMutex
	DB  *moa.Database
	Eng *moa.Engine

	// Gather is the store's query half: a one-leg gather over the serving
	// epoch (storeShards), so every ranked and Moa query runs the same
	// code a sharded engine runs, result cache and θ-memo included.
	*Gather

	// raster store: the demo keeps decoded images keyed by URL so the
	// extraction daemons can reach them (the media server owns the
	// authoritative copies).
	rasters map[string]*media.Image
	order   []string            // ingestion order of URLs
	urls    map[string]struct{} // set of order, for O(1) duplicate checks

	// content metadata built by the pipeline
	Thes         *thesaurus.Thesaurus
	contentTerms map[bat.OID][]string // internal-set OID → cluster words
	indexed      bool                 // an index has been published (epoch exists)

	// snapshot-isolated serving: queries pin the current epoch with one
	// atomic load and never touch the live (mutable) database. buildMu
	// serialises index construction — full builds, delta refreshes and
	// segment merges — without ever blocking queries; lock order is
	// buildMu before mu.
	epoch    atomic.Pointer[IndexEpoch]
	epochSeq int64 // last published epoch number (persisted)
	buildMu  sync.Mutex

	// codebook freezes the feature clustering of the last full build so
	// delta refreshes can assign new documents to the existing clusters
	// (full re-clustering stays an explicit offline BuildContentIndex).
	// Persisted in the store manifest; nil after a distributed build
	// whose daemons did not return models.
	codebook *Codebook

	// Deferred shard recovery: a shard member replays WAL publish records
	// structurally (inserts only) because belief recomputation needs the
	// engine's global statistics; the engine finishes the publish once
	// every shard is open. deferredThes stashes the replayed documents'
	// thesaurus contribution for the engine to fold into the shared
	// instance, deferredMerges the merge records logged after them.
	deferredDelta  bool
	deferredThes   []thesaurus.Doc
	deferredMerges []walRecord

	// persistent mode (OpenPersistent): the BAT buffer pool backing the
	// loaded BATs and the write-ahead log capturing inserts/feedback
	// between checkpoints. Both nil for in-memory instances.
	pool *storage.Pool
	wal  *wal

	// shard identity (ShardedEngine members only; zero for standalone
	// stores). globalOIDs[i] is the engine-wide OID of the i-th locally
	// ingested document — the identity under which this shard's hits
	// merge into the global ranking. Persisted in the store manifest's
	// meta (checkpointed docs) and in each WAL insert record (tail docs),
	// so recovery restores the global mapping shard-locally.
	shardIndex int
	shardCount int
	globalOIDs []uint64

	// Distributed serving (internal/dist). A networked shard primary
	// ships its WAL records to followers (ship != nil); a follower
	// rejects public mutations and only applies shipped records. The
	// epoch ring retains recent published epochs so a router can pin
	// queries to a consistent cross-shard epoch vector by tag; the last
	// published global statistics are cached so a primary can synthesise
	// a full resync stream for a blank or diverged follower.
	follower   bool
	epochHistN int // >0 retains a ring of recent epochs
	epochHist  []*IndexEpoch
	ship       *shipState // primary: marshaled WAL payloads shipped to followers
	replPos    uint64     // follower: replication stream position applied
	replNonce  uint64     // follower: primary incarnation replPos counts under
	// lastPublishTag is the router-assigned tag of the last applied
	// shard publish; publishEpochLocked stamps new epochs with it.
	// lastAnnStats/lastImgStats cache the global statistics of that
	// publish (needed to synthesise resync streams after a restart).
	lastPublishTag             uint64
	lastAnnStats, lastImgStats *ir.GlobalStats
}

// New creates an empty Mirror DBMS with the demo schema defined.
func New() (*Mirror, error) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(librarySchema); err != nil {
		return nil, err
	}
	if err := db.DefineFromSource(internalSchema); err != nil {
		return nil, err
	}
	return newMirror(db), nil
}

// newMirror wraps a database in an empty store and its query half.
func newMirror(db *moa.Database) *Mirror {
	m := &Mirror{
		DB:           db,
		Eng:          moa.NewEngine(db),
		rasters:      map[string]*media.Image{},
		urls:         map[string]struct{}{},
		contentTerms: map[bat.OID][]string{},
	}
	m.Gather = NewGather(storeShards{m})
	return m
}

// AddImage ingests one library item: its URL, its (possibly empty)
// annotation, and the raster. Call BuildContentIndex afterwards to derive
// the internal representation. In persistent mode the insert is logged
// to the WAL so it survives a crash before the next checkpoint.
func (m *Mirror) AddImage(url, annotation string, img *media.Image) error {
	return m.addImage(url, annotation, img, nil)
}

// addImageShard is AddImage for a ShardedEngine member: the engine assigns
// the document's global OID (its position in the engine-wide ingestion
// order), and the shard persists it alongside the local insert.
func (m *Mirror) addImageShard(url, annotation string, img *media.Image, global uint64) error {
	return m.addImage(url, annotation, img, &global)
}

func (m *Mirror) addImage(url, annotation string, img *media.Image, global *uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.follower {
		return ErrFollower
	}
	if _, dup := m.urls[url]; dup {
		return fmt.Errorf("core: image %q already in library", url)
	}
	if err := m.insertLibraryLocked([]string{url}, []string{annotation}); err != nil {
		return err
	}
	// Commit the in-memory state fully before logging, so a WAL failure
	// never leaves a half-applied insert: the item is in the library
	// either way, and the returned error then only reports reduced
	// durability (the next checkpoint still persists it).
	m.rasters[url] = img
	m.order = append(m.order, url)
	m.urls[url] = struct{}{}
	if global != nil {
		m.globalOIDs = append(m.globalOIDs, *global)
	}
	// The published epoch keeps serving: the new document becomes
	// retrievable at the next Refresh (incremental) or BuildContentIndex
	// (full re-clustering). Queries never see a half-indexed document.
	if err := m.logWAL(walRecord{Op: "insert", URL: url, Annotation: annotation, Global: global}); err != nil {
		return fmt.Errorf("core: %q ingested but not WAL-logged (will persist at next checkpoint): %w", url, err)
	}
	return nil
}

// insertLibraryLocked appends items to the library set as one batch: the
// source and image fields both carry the URL. Callers hold m.mu (write).
func (m *Mirror) insertLibraryLocked(urls, annotations []string) error {
	_, err := m.DB.InsertBatch(LibrarySet, map[string]any{
		"source": urls, "annotation": annotations, "image": urls,
	})
	return err
}

// Size reports the number of library items.
func (m *Mirror) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.order)
}

// URLs returns the item URLs in ingestion order.
func (m *Mirror) URLs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// Raster returns the stored raster for a URL.
func (m *Mirror) Raster(url string) (*media.Image, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	img, ok := m.rasters[url]
	return img, ok
}

// ContentTerms returns the cluster words of an internal-set element.
func (m *Mirror) ContentTerms(oid bat.OID) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.contentTerms[oid]...)
}

// Indexed reports whether a content index is being served (some epoch has
// been published). Documents added since the last Refresh are pending —
// see Current — but do not un-index the store: queries keep serving the
// latest published snapshot.
func (m *Mirror) Indexed() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.indexed
}

// Current reports whether the serving epoch covers every ingested
// document (no inserts pending a Refresh).
func (m *Mirror) Current() bool {
	ep := m.currentEpoch()
	m.mu.RLock()
	defer m.mu.RUnlock()
	return ep != nil && ep.Docs == len(m.order)
}

// Pending reports how many ingested documents the serving epoch does not
// cover yet.
func (m *Mirror) Pending() int {
	ep := m.currentEpoch()
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ep == nil {
		return len(m.order)
	}
	return len(m.order) - ep.Docs
}

// annotationOf reads a document's stored annotation under the lock (safe
// against concurrent inserts appending to the library columns).
func (m *Mirror) annotationOf(oid bat.OID) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.DB.BAT(LibrarySet + "_annotation")
	if !ok {
		return ""
	}
	v, _ := b.Find(oid)
	s, _ := v.(string)
	return s
}

// SchemaSource returns the DDL of the served database.
func (m *Mirror) SchemaSource() string { return m.DB.SchemaSource() }

// Thesaurus returns the association thesaurus (nil before indexing).
func (m *Mirror) Thesaurus() *thesaurus.Thesaurus {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.Thes
}

// setThesaurus installs a (possibly shared) thesaurus; the sharded engine
// uses it to point every shard at the one global instance.
func (m *Mirror) setThesaurus(t *thesaurus.Thesaurus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Thes = t
}

// globalOIDsSnapshot returns the local→global OID mapping of a shard
// member. Entries below the returned length are immutable; concurrent
// appends only extend it.
func (m *Mirror) globalOIDsSnapshot() []uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.globalOIDs
}

// Hit is one ranked retrieval result.
type Hit struct {
	OID   bat.OID
	URL   string
	Score float64
}

// AnalyzeQuery exposes the text analysis pipeline used for queries.
func AnalyzeQuery(text string) []string { return ir.Analyze(text) }
