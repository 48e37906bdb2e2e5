package core

import (
	"errors"
	"fmt"
	"runtime"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/moa"
	"mirror/internal/thesaurus"
)

// ErrNotIndexed is returned by every ranked-retrieval entry point invoked
// before any index epoch has been published — a store that never ran
// BuildContentIndex (or lost its index and has not been rebuilt). It is
// wrapping-friendly: callers test with errors.Is, and the RPC layer
// carries it verbatim so remote clients (moash) can print the remediation
// hint.
var ErrNotIndexed = errors.New("core: content index not built (run BuildContentIndex)")

// ErrEpochRetired is returned by tag-pinned shard queries when no retained
// epoch carries the requested publish tag — the ring outgrew it or the
// store (a catching-up follower, or a freshly restarted primary) has not
// applied that publish yet. The RPC layer carries it verbatim so a router
// can fail over to another replica of the shard.
var ErrEpochRetired = errors.New("core: epoch retired (no retained epoch carries the requested publish tag)")

// IndexEpoch is one published, immutable index snapshot. Queries pin an
// epoch (a single atomic load) and run entirely against it: its database
// holds frozen views of every BAT (bat.Freeze) plus the derived columns
// as published, so concurrent inserts, delta refreshes and segment merges
// on the live store can never produce a torn read — a query sees exactly
// the collection state of some published epoch, never a half-built
// segment. Publication is an RCU-style pointer swap; superseded epochs
// stay valid for the queries still holding them and are reclaimed by GC
// (a finalizer releases the ir-layer caches keyed by the snapshot
// database).
type IndexEpoch struct {
	Seq  int64  // monotone epoch number (persisted; survives restarts)
	Docs int    // documents covered (internal-set cardinality at publish)
	Tag  uint64 // router-assigned publish tag (0 outside distributed serving)

	DB  *moa.Database // frozen snapshot: schema + frozen views of every BAT
	Eng *moa.Engine

	thes *thesaurus.Thesaurus // the shared (internally synchronised) thesaurus
	// globals maps shard-local document OIDs to engine-global OIDs for
	// the covered prefix; nil on standalone stores.
	globals []uint64
}

// contrepPrefixes are the internal schema's CONTREP columns.
var contrepPrefixes = []string{InternalSet + "_annotation", InternalSet + "_image"}

// publishEpochLocked snapshots the live database into a fresh immutable
// epoch and swaps it in as the serving index. Callers hold m.mu (write),
// so no append can be mid-flight during the freeze. The snapshot shares
// all column storage with the live BATs (freezing is O(#BATs), not
// O(data)); derived columns are replaced wholesale by every refinalize,
// so an epoch's frozen descriptors are never invalidated.
func (m *Mirror) publishEpochLocked() error {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(m.DB.SchemaSource()); err != nil {
		return fmt.Errorf("core: snapshot schema: %w", err)
	}
	for name, b := range m.DB.Snapshot() {
		db.PutBAT(name, bat.Freeze(b))
	}
	db.SyncAfterLoad()
	// Pre-build the dictionary hash every query's term lookup probes, so
	// the first query after a publish does not pay for it.
	for _, prefix := range contrepPrefixes {
		if b, ok := db.BAT(prefix + "_dictrev"); ok {
			b.EnsureIndex()
		}
	}
	// Build the frozen name→BAT map every query environment of this epoch
	// opens over, once, here.
	db.Base()
	eng := &moa.Engine{DB: db, Opts: m.Eng.Opts}

	m.epochSeq++
	docs := 0
	if def, ok := db.Set(InternalSet); ok {
		docs = def.Card
	}
	ep := &IndexEpoch{
		Seq:     m.epochSeq,
		Docs:    docs,
		Tag:     m.lastPublishTag,
		DB:      db,
		Eng:     eng,
		thes:    m.Thes,
		globals: m.globalOIDs[:len(m.globalOIDs):len(m.globalOIDs)],
	}
	// Reclaim the ir-layer caches of superseded snapshots once their last
	// query lets go of them.
	runtime.SetFinalizer(ep, func(e *IndexEpoch) { ir.ReleaseDBCaches(e.DB) })
	m.epoch.Store(ep)
	// Distributed shard members retain a ring of recent epochs so a router
	// can keep pinning in-flight queries to the tag of its current epoch
	// vector while a newer publish lands on this shard.
	if m.epochHistN > 0 {
		m.epochHist = append(m.epochHist, ep)
		if excess := len(m.epochHist) - m.epochHistN; excess > 0 {
			m.epochHist = append(m.epochHist[:0], m.epochHist[excess:]...)
		}
	}
	return nil
}

// currentEpoch returns the serving snapshot, or nil before the first
// publish. Lock-free: a single atomic pointer load, so queries never
// block on ingest, refresh or checkpoint activity.
func (m *Mirror) currentEpoch() *IndexEpoch { return m.epoch.Load() }

// epochForTag returns the retained epoch carrying the given publish tag:
// the serving epoch when it matches, else the newest ring entry with the
// tag. Matching newest-first makes retried publishes converge — after a
// partially acked refresh round is retried to success, every shard's
// newest epoch for that tag carries the successful round's statistics.
func (m *Mirror) epochForTag(tag uint64) (*IndexEpoch, error) {
	ep := m.currentEpoch()
	if ep == nil {
		return nil, ErrNotIndexed
	}
	if ep.Tag == tag {
		return ep, nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := len(m.epochHist) - 1; i >= 0; i-- {
		if m.epochHist[i].Tag == tag {
			return m.epochHist[i], nil
		}
	}
	return nil, fmt.Errorf("%w: want tag %d, serving tag %d", ErrEpochRetired, tag, ep.Tag)
}

// urlOf resolves an internal-set OID to its source URL within the epoch.
func (ep *IndexEpoch) urlOf(oid bat.OID) string {
	b, ok := ep.DB.BAT(InternalSet + "_source")
	if !ok {
		return ""
	}
	v, ok := b.Find(oid)
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// SegmentsInfo describes the segment layout of one CONTREP on one store,
// as published in the serving epoch (moash \segments).
type SegmentsInfo struct {
	Shard  int // member index; 0 on standalone stores
	Prefix string
	Epoch  int64
	Docs   int
	Segs   []ir.SegmentStat
}

// segmentsOf reports the epoch's segment layout for every CONTREP.
func (ep *IndexEpoch) segmentsOf(shard int) []SegmentsInfo {
	out := make([]SegmentsInfo, 0, len(contrepPrefixes))
	for _, prefix := range contrepPrefixes {
		info := SegmentsInfo{Shard: shard, Prefix: prefix, Epoch: ep.Seq, Docs: ep.Docs}
		info.Segs = ir.SegmentStats(ep.DB, prefix)
		if info.Segs == nil {
			// store checkpointed before segmentation: one monolithic
			// segment over every posting pair
			if b, ok := ep.DB.BAT(prefix + "_term"); ok {
				info.Segs = []ir.SegmentStat{{Slot: 0, Docs: ep.Docs, Postings: b.Len()}}
			}
		}
		out = append(out, info)
	}
	return out
}

// Segments reports the serving epoch's segment layout; nil before the
// first publish.
func (m *Mirror) Segments() []SegmentsInfo {
	ep := m.currentEpoch()
	if ep == nil {
		return nil
	}
	return ep.segmentsOf(m.shardIndex)
}

// PostingsInfo reports one CONTREP's derived-postings storage footprint
// on one store, as published in the serving epoch (moash \stats).
type PostingsInfo struct {
	Shard    int // member index; 0 on standalone stores
	Prefix   string
	Segments int
	Postings int64 // total postings across segments
	Bytes    int64 // resident bytes of the stored postings columns
	RawBytes int64 // computed size of the same postings at 8 bytes per field (ir.PostingsFootprint)
}

// PostingsStats couples the per-store postings footprints with the
// process-wide block-scan counters — monotone totals in the style of
// CacheStats, shared by every store in the process — and the serving
// epoch's plan-cache counters, which restart at every publish because the
// cache belongs to the epoch's engine.
type PostingsStats struct {
	Stores        []PostingsInfo
	BlocksDecoded int64  // postings blocks decoded by pruned scans
	BlocksSkipped int64  // blocks skipped outright via their quantized max-belief bound
	PlanHits      uint64 // queries of the serving epoch answered with a cached plan
	PlanMisses    uint64 // queries of the serving epoch that compiled their plan
}

// postingsOf reports the epoch's postings footprint for every CONTREP.
func (ep *IndexEpoch) postingsOf(shard int) []PostingsInfo {
	out := make([]PostingsInfo, 0, len(contrepPrefixes))
	for _, prefix := range contrepPrefixes {
		fp := ir.Footprint(ep.DB, prefix)
		out = append(out, PostingsInfo{
			Shard: shard, Prefix: prefix,
			Segments: fp.Segments, Postings: fp.Postings,
			Bytes: fp.Bytes, RawBytes: fp.RawBytes,
		})
	}
	return out
}

// PostingsStats reports the serving epoch's postings footprints plus the
// process-wide block-scan counters; zero-valued Stores before the first
// publish.
func (m *Mirror) PostingsStats() PostingsStats {
	var st PostingsStats
	if ep := m.currentEpoch(); ep != nil {
		st.Stores = ep.postingsOf(m.shardIndex)
		st.PlanHits, st.PlanMisses = ep.Eng.PlanCacheStats()
	}
	st.BlocksDecoded, st.BlocksSkipped = bat.BlockScanStats()
	return st
}
