package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/moa"
	"mirror/internal/storage"
	"mirror/internal/thesaurus"
)

// Persistence of a Mirror instance. One writer and one reader share the
// on-disk format (the BAT buffer pool of internal/storage):
//
//   - Load: a read-only copy of the last checkpoint, for tools and tests.
//   - OpenPersistent: a long-running server opens the store once, keeps
//     the pool mapped for zero-copy reads, logs every insert and
//     feedback event to an append-only WAL, and calls Checkpoint to
//     flush only the BATs that changed. On restart, recovery = load the
//     last checkpoint, then replay the WAL tail.
//
// The WAL is logical, not physical: a record names the operation
// (insert / feedback) rather than BAT deltas, so replay goes through
// exactly the code path the original operation used.

// persistMeta is the JSON sidecar stored in the manifest's extra map.
// ThesState carries the full thesaurus — including relevance-feedback
// adjustments, which a rebuild from ThesDocs would lose; ThesDocs is
// kept as the fallback for stores written before ThesState existed.
type persistMeta struct {
	Order        []string            `json:"order"`
	ContentTerms map[uint64][]string `json:"content_terms"`
	Indexed      bool                `json:"indexed"`
	ThesState    *thesaurus.State    `json:"thesaurus_state,omitempty"`
	ThesDocs     []thesaurus.Doc     `json:"thesaurus_docs,omitempty"`
	Shard        *shardMeta          `json:"shard,omitempty"`
	// Epoch is the last published index epoch number; recovery resumes
	// the sequence from here (replayed publishes advance it further).
	Epoch int64 `json:"epoch,omitempty"`
	// Codebook is the frozen clustering of the last full build, what lets
	// Refresh keep assigning new documents after a restart.
	Codebook *Codebook `json:"codebook,omitempty"`

	// Distributed serving state (internal/dist; zero elsewhere).
	// EpochTag is the router-assigned tag of the last applied shard
	// publish; AnnStats/ImgStats are that publish's global statistics (a
	// restarted primary needs them to synthesise follower resync
	// streams). ReplPos/ReplNonce are a follower's replication stream
	// position and the primary incarnation it counts under.
	EpochTag  uint64          `json:"epoch_tag,omitempty"`
	AnnStats  *ir.GlobalStats `json:"ann_stats,omitempty"`
	ImgStats  *ir.GlobalStats `json:"img_stats,omitempty"`
	ReplPos   uint64          `json:"repl_pos,omitempty"`
	ReplNonce uint64          `json:"repl_nonce,omitempty"`
}

// shardMeta makes the sharded layout a stored property of the MANIFEST: a
// shard store records which slice of which layout it is, so a sharded
// engine reopens a store with exactly the layout it was built with (and
// refuses a contradicting -shards request). GlobalOIDs aligns with Order.
type shardMeta struct {
	Index      int      `json:"index"`
	Count      int      `json:"count"`
	GlobalOIDs []uint64 `json:"global_oids"`
}

// PersistOptions configures OpenPersistent.
type PersistOptions struct {
	Dir     string // store directory (created when absent)
	WALSync bool   // fsync the WAL on every append (durable per-op)
	Verify  bool   // checksum heap files on load
	NoMmap  bool   // force the portable (copying) load path

	// ShardIndex/ShardCount declare the store a member of a sharded
	// layout (ShardCount > 0). A fresh store is stamped with them; an
	// existing store must have been built with the same identity —
	// resharding a store in place is refused. Both zero for standalone
	// stores. Set by OpenShardedPersistent; not normally set by hand.
	ShardIndex int
	ShardCount int
}

// ---- write-ahead log ----

// walDoc is one document of a "publish" record: the URL identifies the
// (already WAL-logged or checkpointed) library item, Words carries its
// content cluster terms — extraction is NOT re-runnable during recovery
// (rasters are never persisted), so the publish record captures its
// output.
type walDoc struct {
	URL   string   `json:"url"`
	Words []string `json:"words,omitempty"`
}

// walRecord is one logical WAL entry.
type walRecord struct {
	Op         string   `json:"op"` // "insert" | "feedback" | "publish" | "merge"
	URL        string   `json:"url,omitempty"`
	Annotation string   `json:"annotation,omitempty"`
	Words      []string `json:"words,omitempty"`
	Concepts   []string `json:"concepts,omitempty"`
	Relevant   bool     `json:"relevant,omitempty"`
	// Global is the engine-wide OID of a sharded insert (nil on
	// standalone stores): replay must restore the local→global mapping
	// for documents the checkpoint has not captured yet.
	Global *uint64 `json:"global,omitempty"`

	// "publish" records: Base is the covered-document count the delta
	// applies on top of (replay refuses a mismatching base — a full
	// rebuild ran after the checkpoint and was not logged, so the delta
	// no longer applies); Docs are the newly covered documents.
	Base int      `json:"base,omitempty"`
	Docs []walDoc `json:"docs,omitempty"`

	// "merge" records: the compaction applied to Prefix's segment
	// directory. SegsBefore guards idempotent replay (a checkpoint taken
	// after the merge already reflects it; the count mismatch skips).
	Prefix     string `json:"prefix,omitempty"`
	MergeLo    int    `json:"merge_lo,omitempty"`
	MergeHi    int    `json:"merge_hi,omitempty"`
	SegsBefore int    `json:"segs_before,omitempty"`

	// Distributed "publish" records (internal/dist) are self-contained:
	// a networked shard member has no in-process engine to re-register
	// global statistics during recovery, so the record carries them (and,
	// for full builds, the frozen codebook). Tag is the router-assigned
	// publish tag the resulting epoch serves under; Full marks a full
	// (re)build covering the whole local corpus from Base 0.
	AnnStats *ir.GlobalStats `json:"ann_stats,omitempty"`
	ImgStats *ir.GlobalStats `json:"img_stats,omitempty"`
	Codebook *Codebook       `json:"codebook,omitempty"`
	Tag      uint64          `json:"tag,omitempty"`
	Full     bool            `json:"full,omitempty"`

	// Replication stamps, set only by a follower logging a shipped
	// record to its own WAL: Ship is the record's position in the
	// primary's replication stream, ShipNonce the primary incarnation.
	// Recovery resumes pulling from the highest replayed stamp.
	Ship      uint64 `json:"ship,omitempty"`
	ShipNonce uint64 `json:"ship_nonce,omitempty"`
}

// WAL framing: every record is [len uint32][crc32c uint32][payload],
// little-endian, payload = JSON. Replay accepts the longest valid
// prefix: a torn or corrupt tail (the expected crash shape for an
// append-only file) is truncated away, never silently half-applied.
const (
	walName = "wal.log"
	// maxWALRecord bounds one record's JSON payload; append enforces it
	// so replay (which treats larger lengths as a torn tail) can never
	// misread an acknowledged record as corruption.
	maxWALRecord = 1 << 24
)

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

type wal struct {
	mu       sync.Mutex
	f        *os.File
	syncEach bool
}

// replayWAL parses the longest valid record prefix of the WAL at path.
// It returns the records and the byte offset where valid data ends;
// tornTail reports whether anything (a torn or corrupt suffix) follows.
func replayWAL(path string) (recs []walRecord, validEnd int64, tornTail bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("core: read WAL: %w", err)
	}
	off := int64(0)
	for int64(len(data))-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxWALRecord || off+8+int64(n) > int64(len(data)) {
			break
		}
		payload := data[off+8 : off+8+int64(n)]
		if crc32.Checksum(payload, walCRCTable) != crc {
			break
		}
		var r walRecord
		if json.Unmarshal(payload, &r) != nil {
			break
		}
		recs = append(recs, r)
		off += 8 + int64(n)
	}
	return recs, off, off < int64(len(data)), nil
}

// openWAL opens (creating if needed) the WAL for appending, truncating
// any torn tail found past validEnd.
func openWAL(path string, validEnd int64, syncEach bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open WAL: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: truncate WAL tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, syncEach: syncEach}, nil
}

// appendPayload frames and writes one already-marshaled record.
func (w *wal) appendPayload(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(payload) > maxWALRecord {
		return fmt.Errorf("core: WAL record of %d bytes exceeds the %d-byte limit", len(payload), maxWALRecord)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, walCRCTable))
	copy(buf[8:], payload)
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("core: append WAL: %w", err)
	}
	if w.syncEach {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("core: fsync WAL: %w", err)
		}
	}
	return nil
}

// reset empties the WAL after a checkpoint has made its records
// redundant.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("core: reset WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *wal) close() error { return w.f.Close() }

// ---- checkpoint metadata / load ----

// persistExtraLocked serialises the schema and demo metadata for the
// store manifest. Callers hold m.mu.
func (m *Mirror) persistExtraLocked() (map[string]string, error) {
	meta := persistMeta{
		Order:        m.order,
		ContentTerms: map[uint64][]string{},
		Indexed:      m.indexed,
	}
	for oid, terms := range m.contentTerms {
		meta.ContentTerms[uint64(oid)] = terms
	}
	if m.Thes != nil {
		meta.ThesState = m.Thes.State()
	}
	if m.shardCount > 0 {
		meta.Shard = &shardMeta{
			Index:      m.shardIndex,
			Count:      m.shardCount,
			GlobalOIDs: m.globalOIDs,
		}
	}
	meta.Epoch = m.epochSeq
	meta.Codebook = m.codebook
	meta.EpochTag = m.lastPublishTag
	meta.AnnStats = m.lastAnnStats
	meta.ImgStats = m.lastImgStats
	meta.ReplPos = m.replPos
	meta.ReplNonce = m.replNonce
	mb, err := json.Marshal(&meta)
	if err != nil {
		return nil, fmt.Errorf("core: marshal metadata: %w", err)
	}
	return map[string]string{
		"schema": m.DB.SchemaSource(),
		"meta":   string(mb),
	}, nil
}

// buildFromBATs assembles a Mirror from loaded BATs plus the manifest's
// extra metadata (shared by Load and OpenPersistent).
func buildFromBATs(bats map[string]*bat.BAT, extra map[string]string) (*Mirror, error) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(extra["schema"]); err != nil {
		return nil, fmt.Errorf("core: load schema: %w", err)
	}
	for name, b := range bats {
		db.PutBAT(name, b)
	}
	db.SyncAfterLoad()
	// A checkpoint written by an earlier build may predate segmentation,
	// hold raw-layout postings segments, or carry the pair-order belief
	// copy (_bel, _termrev): bring it to today's layout before anything
	// (WAL replay, refresh, the planner) meets it. In memory only — the
	// next checkpoint persists the upgrade.
	for _, prefix := range contrepPrefixes {
		if err := ir.UpgradeLayout(db, prefix); err != nil {
			return nil, fmt.Errorf("core: postings layout upgrade (%s): %w", prefix, err)
		}
	}

	m := newMirror(db)
	var meta persistMeta
	if raw := extra["meta"]; raw != "" {
		if err := json.Unmarshal([]byte(raw), &meta); err != nil {
			return nil, fmt.Errorf("core: parse metadata: %w", err)
		}
	}
	m.order = meta.Order
	for _, u := range m.order {
		m.urls[u] = struct{}{}
	}
	m.indexed = meta.Indexed
	for oid, terms := range meta.ContentTerms {
		m.contentTerms[bat.OID(oid)] = terms
	}
	switch {
	case meta.ThesState != nil:
		m.Thes = thesaurus.FromState(meta.ThesState)
	case len(meta.ThesDocs) > 0:
		m.Thes = thesaurus.Build(meta.ThesDocs)
	}
	m.epochSeq = meta.Epoch
	m.codebook = meta.Codebook
	m.lastPublishTag = meta.EpochTag
	m.lastAnnStats = meta.AnnStats
	m.lastImgStats = meta.ImgStats
	m.replPos = meta.ReplPos
	m.replNonce = meta.ReplNonce
	if meta.Shard != nil {
		m.shardIndex = meta.Shard.Index
		m.shardCount = meta.Shard.Count
		m.globalOIDs = meta.Shard.GlobalOIDs
		if len(m.globalOIDs) != len(m.order) {
			return nil, fmt.Errorf("core: shard meta lists %d global OIDs for %d documents",
				len(m.globalOIDs), len(m.order))
		}
	}
	return m, nil
}

// Load opens a store's last checkpoint as an in-memory snapshot: no pool
// kept open, and nothing on disk touched — the WAL tail is not replayed
// and no orphaned heap file is swept, so it may run beside a live
// writer. Rasters are never stored (the media server owns the footage);
// re-running the extraction pipeline requires re-attaching them with
// AddRaster. Long-running servers use OpenPersistent.
func Load(dir string) (*Mirror, error) {
	bats, extra, err := storage.Load(dir)
	if err != nil {
		return nil, err
	}
	m, err := buildFromBATs(bats, extra)
	if err != nil {
		return nil, err
	}
	if m.indexed {
		m.mu.Lock()
		err = m.publishEpochLocked()
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ---- persistent mode ----

// RecoveryStats reports what OpenPersistent found.
type RecoveryStats struct {
	BATs       int  // BATs in the checkpoint
	WALRecords int  // logical records replayed from the WAL
	WALSkipped int  // records already covered by the checkpoint (idempotent replay)
	TornTail   bool // a torn/corrupt WAL suffix was truncated
}

// OpenPersistent opens (or initialises) a durable Mirror store: the
// last checkpoint is loaded through the BAT buffer pool — zero-copy on
// linux — and the WAL tail is replayed on top, restoring every insert
// and feedback event since that checkpoint. A checkpoint in the legacy
// raw postings layout (manifest v2) is upgraded to block segments in
// memory on the way (buildFromBATs). The returned Mirror keeps the pool and WAL open;
// call Checkpoint to flush changed BATs and truncate the WAL, and
// ClosePersistent on shutdown.
func OpenPersistent(opts PersistOptions) (*Mirror, RecoveryStats, error) {
	var stats RecoveryStats
	pool, err := storage.OpenOrCreate(opts.Dir, storage.Options{
		Verify: opts.Verify, NoMmap: opts.NoMmap,
	})
	if err != nil {
		return nil, stats, err
	}

	var m *Mirror
	names := pool.Names()
	if len(names) == 0 {
		if m, err = New(); err != nil {
			pool.Close()
			return nil, stats, err
		}
	} else {
		bats := make(map[string]*bat.BAT, len(names))
		for _, name := range names {
			// These BATs are installed in the logical database; the pool
			// keeps their mappings until ClosePersistent.
			b, err := pool.Get(name)
			if err != nil {
				pool.Close()
				return nil, stats, fmt.Errorf("core: recover %s: %w", opts.Dir, err)
			}
			bats[name] = b
		}
		if m, err = buildFromBATs(bats, pool.Extra()); err != nil {
			pool.Close()
			return nil, stats, err
		}
	}
	stats.BATs = len(names)

	// Shard identity: stamp a fresh store, verify an existing one. The
	// layout is a stored property of the manifest — a store only ever
	// reopens as the shard it was built as.
	if opts.ShardCount > 0 {
		switch {
		case m.shardCount == 0 && len(m.order) == 0:
			m.shardIndex, m.shardCount = opts.ShardIndex, opts.ShardCount
		case m.shardCount == 0:
			pool.Close()
			return nil, stats, fmt.Errorf("core: %s was built standalone; resharding in place is not supported", opts.Dir)
		case m.shardIndex != opts.ShardIndex || m.shardCount != opts.ShardCount:
			pool.Close()
			return nil, stats, fmt.Errorf("core: %s is shard %d/%d, not the requested %d/%d",
				opts.Dir, m.shardIndex, m.shardCount, opts.ShardIndex, opts.ShardCount)
		}
	}

	walPath := filepath.Join(opts.Dir, walName)
	recs, validEnd, torn, err := replayWAL(walPath)
	if err != nil {
		pool.Close()
		return nil, stats, err
	}
	stats.TornTail = torn
	for len(recs) > 0 {
		// A run of consecutive inserts replays as one batch; every other
		// record replays alone.
		n := 1
		for recs[0].Op == "insert" && n < len(recs) && recs[n].Op == "insert" {
			n++
		}
		applied, err := m.applyWALRecords(recs[:n])
		if err != nil {
			pool.Close()
			return nil, stats, fmt.Errorf("core: WAL replay: %w", err)
		}
		for i, r := range recs[:n] {
			if applied[i] {
				stats.WALRecords++
			} else {
				stats.WALSkipped++
			}
			// A follower resumes pulling from the highest replication
			// stamp it durably applied (the checkpoint's position is the
			// floor; a torn WAL tail simply lowers the stamp, and the
			// primary re-ships the suffix for idempotent re-apply).
			if r.Ship > m.replPos {
				m.replPos = r.Ship
				if r.ShipNonce != 0 {
					m.replNonce = r.ShipNonce
				}
			}
		}
		recs = recs[n:]
	}

	// Serve the recovered index: one epoch publish restores snapshot-
	// isolated queries at exactly the replayed state (the sequence number
	// advances past every replayed publish, so epochs stay monotone
	// across the crash). A shard member that replayed publish records
	// defers — belief recomputation needs the engine's global statistics,
	// which OpenShardedPersistent re-registers before finishing the
	// publish.
	if m.indexed && !m.deferredDelta {
		m.mu.Lock()
		perr := m.publishEpochLocked()
		m.mu.Unlock()
		if perr != nil {
			pool.Close()
			return nil, stats, perr
		}
	}

	w, err := openWAL(walPath, validEnd, opts.WALSync)
	if err != nil {
		pool.Close()
		return nil, stats, err
	}
	m.pool = pool
	m.wal = w
	return m, stats, nil
}

// applyWALRecords re-executes logged operations during recovery: a run
// of consecutive inserts, or any one record, reporting per record
// whether it applied. Replay must be idempotent: a crash between a
// checkpoint's manifest commit and the WAL reset leaves records the
// checkpoint already contains, and they must not brick the store.
// Inserts whose URL the checkpoint already holds are skipped
// (applied=false); feedback records in that window re-reinforce, which
// only nudges already-learnt co-occurrence counts — tolerated by design,
// like the prototype's approximate adaptation.
func (m *Mirror) applyWALRecords(recs []walRecord) ([]bool, error) {
	applied, err := true, error(nil)
	switch r := recs[0]; r.Op {
	case "insert":
		return m.replayInserts(recs)
	case "feedback":
		if m.Thes != nil {
			m.Thes.Reinforce(r.Words, r.Concepts, r.Relevant)
		}
	case "publish":
		applied, err = m.replayPublish(r)
	case "merge":
		applied, err = m.replayMerge(r)
	default:
		return nil, fmt.Errorf("core: unknown WAL op %q", r.Op)
	}
	return []bool{applied}, err
}

// replayPublish re-applies one delta publish during recovery, using the
// record's captured content words in place of extraction. Idempotent: a
// delta the checkpoint already covers is skipped. A base mismatch means a
// full rebuild ran after the checkpoint without being logged (full builds
// carry their whole corpus and are deliberately not WAL-logged); the
// delta no longer applies to anything, so the index is dropped loudly-by-
// behavior (queries return ErrNotIndexed until the operator — or
// mirrord's startup path — rebuilds).
func (m *Mirror) replayPublish(r walRecord) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.AnnStats != nil {
		// Self-contained distributed publish: the record carries the
		// global statistics, so replay recomputes beliefs directly
		// instead of deferring to an in-process engine.
		applied, err := m.applyStatsPublishLocked(r)
		if err != nil {
			return false, fmt.Errorf("core: replay publish: %w", err)
		}
		if applied {
			m.epochSeq++ // keep the epoch sequence monotone across the crash
		}
		return applied, nil
	}
	covered := m.coveredLocked()
	if covered >= r.Base+len(r.Docs) {
		return false, nil // checkpoint already contains this publish
	}
	if covered != r.Base || !m.indexed {
		m.dropIndexLocked()
		return false, nil
	}
	urls := make([]string, 0, len(r.Docs))
	words := make(map[string][]string, len(r.Docs))
	for _, d := range r.Docs {
		urls = append(urls, d.URL)
		words[d.URL] = d.Words
	}
	if _, err := m.applyDeltaLocked(urls, words, nil, nil, m.shardCount == 0); err != nil {
		return false, fmt.Errorf("core: replay publish: %w", err)
	}
	m.epochSeq++ // keep the epoch sequence monotone across the crash
	return true, nil
}

// replayMerge re-applies one segment compaction. The SegsBefore guard
// skips merges the checkpoint already reflects (or that no longer apply
// after a deferred sharded recovery); skipping a merge never changes
// query results — compaction is layout-only. A shard whose publish is
// deferred stashes the merge (reported skipped) for finishDeferredDelta.
func (m *Mirror) replayMerge(r walRecord) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.indexed {
		return false, nil
	}
	if m.deferredDelta {
		m.deferredMerges = append(m.deferredMerges, r)
		return false, nil
	}
	return m.replayMergeLocked(r)
}

// replayMergeLocked is replayMerge's guarded merge; callers hold m.mu.
func (m *Mirror) replayMergeLocked(r walRecord) (bool, error) {
	if ir.SegmentCount(m.DB, r.Prefix) != r.SegsBefore {
		return false, nil
	}
	if err := ir.MergeSegments(m.DB, r.Prefix, r.MergeLo, r.MergeHi); err != nil {
		return false, fmt.Errorf("core: replay merge: %w", err)
	}
	return true, nil
}

// dropIndexLocked abandons the content index (internal set, segments,
// epoch); the library itself is untouched. The store reports !Indexed()
// and mirrord's startup path rebuilds by crawling.
func (m *Mirror) dropIndexLocked() {
	_ = m.DB.Reset(InternalSet)
	m.contentTerms = map[bat.OID][]string{}
	m.indexed = false
	m.codebook = nil
	m.epoch.Store(nil)
}

// replayInserts is AddImage minus the raster for a run of consecutive
// insert records, applied as one library batch (footage is never in the
// WAL; the media server owns it, exactly as after Load). A record whose
// URL the store, or an earlier record of the run, already holds is
// skipped (applied[i] false: already in the checkpoint), as replaying
// the records one at a time would skip it.
func (m *Mirror) replayInserts(recs []walRecord) (applied []bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	applied = make([]bool, len(recs))
	urls := make([]string, 0, len(recs))
	anns := make([]string, 0, len(recs))
	run := make(map[string]struct{}, len(recs))
	for i, r := range recs {
		_, dup := m.urls[r.URL]
		if _, again := run[r.URL]; dup || again {
			continue
		}
		run[r.URL] = struct{}{}
		applied[i] = true
		urls = append(urls, r.URL)
		anns = append(anns, r.Annotation)
	}
	if err := m.insertLibraryLocked(urls, anns); err != nil {
		return nil, err
	}
	for i, r := range recs {
		if !applied[i] {
			continue
		}
		m.order = append(m.order, r.URL)
		m.urls[r.URL] = struct{}{}
		if r.Global != nil {
			m.globalOIDs = append(m.globalOIDs, *r.Global)
		}
	}
	return applied, nil
}

// logWAL appends a record when running in persistent mode; a no-op
// otherwise. Callers hold m.mu (write lock), which both keeps WAL order
// equal to apply order and makes append atomic with Checkpoint's
// pool-flush + WAL-reset pair, so no record lands between the two and
// gets silently truncated. A shipping primary also appends the marshaled
// payload to its in-memory replication stream — before the wal==nil
// check, so in-memory primaries (tests) replicate too.
func (m *Mirror) logWAL(r walRecord) error {
	if m.wal == nil && m.ship == nil {
		return nil
	}
	payload, err := json.Marshal(&r)
	if err != nil {
		return fmt.Errorf("core: marshal WAL record: %w", err)
	}
	if m.ship != nil {
		m.ship.log = append(m.ship.log, payload)
	}
	if m.wal == nil {
		return nil
	}
	return m.wal.appendPayload(payload)
}

// reinforceLogged applies one thesaurus reinforcement under the write
// lock and logs it, the mutation path relevance feedback uses so the
// adaptation is atomic with checkpointing.
func (m *Mirror) reinforceLogged(words, concepts []string, relevant bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.follower {
		return ErrFollower
	}
	if m.Thes == nil {
		return fmt.Errorf("core: no thesaurus built")
	}
	m.Thes.Reinforce(words, concepts, relevant)
	if err := m.logWAL(walRecord{Op: "feedback", Words: words, Concepts: concepts, Relevant: relevant}); err != nil {
		// Mirror AddImage's contract: the reinforcement IS applied (and
		// the thesaurus state persists at the next checkpoint); the
		// error only reports reduced durability, so callers do not
		// retry and double-reinforce.
		return fmt.Errorf("core: feedback applied but not WAL-logged (will persist at next checkpoint): %w", err)
	}
	return nil
}

// Persistent reports whether the instance was opened with
// OpenPersistent.
func (m *Mirror) Persistent() bool { return m.pool != nil }

// Checkpoint flushes the database to the store: only BATs dirtied (or
// replaced) since the last checkpoint are rewritten, the manifest is
// atomically swapped, and the WAL — now redundant — is emptied. It is
// an error on a non-persistent instance.
func (m *Mirror) Checkpoint() (storage.CheckpointStats, error) {
	// Full lock: the WAL must not receive records between the pool
	// checkpoint and the WAL reset, or they would be lost on replay.
	// The pool check also happens under the lock so a concurrent
	// ClosePersistent cannot nil it out from under us.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pool == nil {
		return storage.CheckpointStats{}, fmt.Errorf("core: Checkpoint on a non-persistent Mirror (open it with OpenPersistent)")
	}
	extra, err := m.persistExtraLocked()
	if err != nil {
		return storage.CheckpointStats{}, err
	}
	stats, err := m.pool.Checkpoint(m.DB.Snapshot(), extra)
	if err != nil {
		return stats, err
	}
	return stats, m.wal.reset()
}

// ClosePersistent checkpoints nothing; it releases the WAL handle and
// unmaps the pool. The Mirror must not be used afterwards (its BATs may
// reference unmapped memory). No-op for non-persistent instances.
func (m *Mirror) ClosePersistent() error {
	if m.pool == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	werr := m.wal.close()
	perr := m.pool.Close()
	m.wal, m.pool = nil, nil
	if werr != nil {
		return werr
	}
	return perr
}

// AddRaster re-attaches footage to an already-ingested URL (after Load),
// enabling the extraction pipeline to run again.
func (m *Mirror) AddRaster(url string, img *media.Image) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.urls[url]; !ok {
		return fmt.Errorf("core: URL %q is not in the library", url)
	}
	m.rasters[url] = img
	return nil
}
