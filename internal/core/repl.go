package core

// Distributed serving (internal/dist): the networked counterpart of the
// in-process ShardedEngine. A shard PRIMARY is a standalone persistent
// Mirror declared a member of an engine-wide layout (NewShardMember /
// PersistOptions.Shard*) whose index lifecycle is driven remotely: the
// router fans ShardPublish calls out instead of an in-process engine
// holding pointers. Three properties make that workable over a network:
//
//   - Publishes are SELF-CONTAINED. An in-process shard defers WAL
//     publish replay to its engine, which re-registers global statistics
//     before beliefs recompute. A networked shard has no engine at
//     recovery time, so its publish records carry the statistics (and,
//     for full builds, the frozen codebook): replay — local WAL replay
//     and follower replication alike — recomputes the exact beliefs the
//     live publish produced (applyStatsPublishLocked).
//
//   - Epochs are pinned by TAG, not pointer. The router stamps every
//     publish round with a monotone tag; each shard retains a ring of
//     recently published epochs (KeepEpochHistory) and serves a query at
//     the epoch carrying the requested tag. All shards answering tag T
//     reproduce exactly the collection state of round T — the networked
//     equivalent of the engineEpoch's vector of epoch pointers — which
//     is what keeps the oracle invariant ("every served result exact for
//     some published epoch") intact over the network.
//
//   - Replication IS the WAL. A primary appends every logical WAL
//     payload to an in-memory stream (EnableShipping); followers pull
//     frames (WALShip RPC) and replay them through the same apply paths
//     recovery uses, logging each to their own WAL stamped with the
//     stream position. Catch-up after restart or a torn follower WAL
//     tail is a positional re-pull with idempotent re-apply; a nonce
//     mismatch (primary restarted) or positional gap degrades to a full
//     resync stream synthesised from the primary's state (ShardSync),
//     which also re-applies idempotently.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/thesaurus"
)

// ErrFollower is returned by every public mutation attempted on a
// replication follower; writes go to the shard primary, and the follower
// converges by replaying the shipped WAL.
var ErrFollower = errors.New("core: store is a replication follower (writes go to the shard primary)")

// shipState is a primary's in-memory replication stream: every logical
// WAL payload of this process incarnation, in log order. The nonce names
// the incarnation — a follower holding positions from a previous one is
// told to resync. Guarded by m.mu.
type shipState struct {
	nonce uint64
	log   [][]byte
}

// maxShipBatch bounds how many records one WALShip reply carries.
const maxShipBatch = 256

func newShipNonce() uint64 {
	n := uint64(time.Now().UnixNano())<<8 ^ uint64(os.Getpid())
	if n == 0 {
		n = 1
	}
	return n
}

// ---- setup ----

// NewShardMember creates an in-memory Mirror declared shard index of an
// engine-wide layout of count shards (the networked counterpart of a
// ShardedEngine member; persistent members set PersistOptions.ShardIndex/
// ShardCount instead). Its index lifecycle is driven by ApplyShardPublish.
func NewShardMember(index, count int) (*Mirror, error) {
	if count <= 0 || index < 0 || index >= count {
		return nil, fmt.Errorf("core: shard %d/%d out of range", index, count)
	}
	m, err := New()
	if err != nil {
		return nil, err
	}
	m.shardIndex, m.shardCount = index, count
	return m, nil
}

// SetFollower marks the store a replication follower: every public
// mutation returns ErrFollower; state changes arrive only through
// ApplyShipped/ApplyGenesis (and Checkpoint, which stays allowed).
func (m *Mirror) SetFollower() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.follower = true
}

// IsFollower reports whether SetFollower was called.
func (m *Mirror) IsFollower() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.follower
}

// EnableShipping makes the store a replication primary: from now on every
// logical WAL record also appends to the in-memory replication stream
// followers pull from. Idempotent.
func (m *Mirror) EnableShipping() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ship == nil {
		m.ship = &shipState{nonce: newShipNonce()}
	}
}

// KeepEpochHistory retains the n most recently published epochs so
// tag-pinned queries keep answering while newer publishes land. n <= 0
// disables retention (standalone default).
func (m *Mirror) KeepEpochHistory(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epochHistN = n
	if n <= 0 {
		m.epochHist = nil
	}
}

// Topology describes the store's place in the serving topology (moash
// \topology).
func (m *Mirror) Topology() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.shardCount == 0 {
		return "single store (standalone)"
	}
	role := "primary"
	if m.follower {
		role = "follower"
	}
	return fmt.Sprintf("shard %d/%d %s", m.shardIndex, m.shardCount, role)
}

// ---- self-contained (stats-bearing) shard publishes ----

// ApplyShardPublish applies one router-driven publish to a shard member:
// the delta documents (shard-local order; full = the whole local corpus
// from base 0) with their content words, the engine-wide collection
// statistics of this round, and the round's tag. It is the networked
// analogue of the engine's SetGlobalStats + publishShardDelta pair, but
// logs a SELF-CONTAINED WAL record so recovery and replication need no
// engine. The resulting epoch serves under the given tag.
func (m *Mirror) ApplyShardPublish(urls []string, words map[string][]string, annStats, imgStats *ir.GlobalStats, cb *Codebook, full bool, tag uint64) (RefreshStats, error) {
	var st RefreshStats
	if annStats == nil || imgStats == nil {
		return st, fmt.Errorf("core: shard publish without global statistics")
	}
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.follower {
		return st, ErrFollower
	}
	if m.shardCount == 0 {
		return st, fmt.Errorf("core: shard publish on a standalone store")
	}
	rec := walRecord{Op: "publish", AnnStats: annStats, ImgStats: imgStats, Codebook: cb, Full: full, Tag: tag}
	if !full {
		rec.Base = m.coveredLocked()
	}
	for i, url := range urls {
		pos := rec.Base + i
		if pos >= len(m.order) || m.order[pos] != url {
			return st, fmt.Errorf("core: publish document %d is %q, library order has %q",
				pos, url, orderAt(m.order, pos))
		}
		rec.Docs = append(rec.Docs, walDoc{URL: url, Words: dedupSorted(append([]string(nil), words[url]...))})
	}
	applied, err := m.applyStatsPublishLocked(rec)
	if err != nil {
		return st, err
	}
	var walErr error
	if applied {
		walErr = m.logWAL(rec)
		st.Merges = m.compactLocked()
	}
	if err := m.publishEpochLocked(); err != nil {
		return st, err
	}
	ep := m.currentEpoch()
	st.NewDocs, st.Docs, st.Epoch, st.Segments = len(urls), ep.Docs, ep.Seq, m.maxSegments()
	if walErr != nil {
		return st, fmt.Errorf("core: delta published but not WAL-logged (will persist at next checkpoint): %w", walErr)
	}
	return st, nil
}

func orderAt(order []string, pos int) string {
	if pos < len(order) {
		return order[pos]
	}
	return "<beyond library>"
}

// applyStatsPublishLocked applies one self-contained publish record —
// live (ApplyShardPublish), local WAL replay, and follower replication
// all funnel through it, so every path reconstructs the identical index
// state. Idempotent: publishes the store already covers are skipped,
// EXCEPT empty-delta records at the current coverage, which re-apply
// (they exist to move beliefs under new statistics, and refinalization is
// idempotent). Callers hold m.mu (write); the epoch publish and the
// sequence bump are the caller's. Returns whether state changed.
func (m *Mirror) applyStatsPublishLocked(r walRecord) (bool, error) {
	covered := m.coveredLocked()
	target := r.Base + len(r.Docs)
	switch {
	case covered > target:
		return false, nil // a later publish is already applied
	case covered == target && len(r.Docs) > 0 && m.indexed:
		// Already applied — skip, EXCEPT a full publish under a NEW tag: a
		// router re-clustering rebuild covers the same corpus but carries a
		// new model, so it must re-apply (same-tag full records are
		// idempotent replication replays, which the skip is for).
		if !r.Full || r.Tag == m.lastPublishTag {
			return false, nil
		}
	case covered < r.Base:
		return false, fmt.Errorf("core: publish base %d beyond %d covered documents (replication gap)", r.Base, covered)
	}
	annVocab := sortedKeys(r.AnnStats.DF)
	imgVocab := sortedKeys(r.ImgStats.DF)
	ir.SetGlobalStats(m.DB, InternalSet+"_annotation", r.AnnStats)
	ir.SetGlobalStats(m.DB, InternalSet+"_image", r.ImgStats)
	defer func() {
		ir.SetGlobalStats(m.DB, InternalSet+"_annotation", nil)
		ir.SetGlobalStats(m.DB, InternalSet+"_image", nil)
	}()
	if r.Full || (r.Base == 0 && !m.indexed) {
		// Full (re)build: repopulate the internal set from the record's
		// covered prefix. Re-applied on a diverged follower this CONVERGES
		// rather than accumulates: populate resets the set first.
		thDocs, err := m.populateCoveredLocked(r.Docs, annVocab, imgVocab)
		if err != nil {
			return false, err
		}
		m.Thes = thesaurus.Build(thDocs)
	} else {
		if !m.indexed {
			return false, fmt.Errorf("core: incremental publish at base %d on an unindexed store", r.Base)
		}
		delta := r.Docs[covered-r.Base:]
		urls := make([]string, 0, len(delta))
		words := make(map[string][]string, len(delta))
		for _, d := range delta {
			urls = append(urls, d.URL)
			words[d.URL] = d.Words
		}
		if _, err := m.applyDeltaLocked(urls, words, annVocab, imgVocab, true); err != nil {
			return false, err
		}
	}
	m.indexed = true
	if r.Codebook != nil {
		m.codebook = r.Codebook
	}
	m.lastAnnStats, m.lastImgStats = r.AnnStats, r.ImgStats
	m.lastPublishTag = r.Tag
	return true, nil
}

// populateCoveredLocked is populateContentLocked restricted to the given
// covered prefix of the library (a replicated publish may cover fewer
// documents than the library holds — the rest are pending their own
// publish). docs[i] must be the library's i-th document. Callers hold
// m.mu (write).
func (m *Mirror) populateCoveredLocked(docs []walDoc, annDict, imgDict []string) ([]thesaurus.Doc, error) {
	for i, d := range docs {
		if i >= len(m.order) || m.order[i] != d.URL {
			return nil, fmt.Errorf("core: publish document %d is %q, library order has %q",
				i, d.URL, orderAt(m.order, i))
		}
	}
	if err := m.DB.Reset(InternalSet); err != nil {
		return nil, err
	}
	m.contentTerms = map[bat.OID][]string{}
	staged, thDocs := m.stageDocsLocked(0, docs)
	if err := m.insertStagedLocked(staged); err != nil {
		return nil, err
	}
	if annDict != nil {
		if err := ir.EnsureDictTerms(m.DB, InternalSet+"_annotation", annDict); err != nil {
			return nil, err
		}
	}
	if imgDict != nil {
		if err := ir.EnsureDictTerms(m.DB, InternalSet+"_image", imgDict); err != nil {
			return nil, err
		}
	}
	if err := m.DB.Finalize(InternalSet); err != nil {
		return nil, err
	}
	return thDocs, nil
}

// ---- replication: primary side ----

// shipSince returns the stream suffix [since, …) of the primary's
// replication log, bounded to maxShipBatch records. resync reports that
// the position is unservable — the follower's nonce names a previous
// incarnation, or the position lies beyond the stream — and the follower
// must take a full resync (shipGenesis).
func (m *Mirror) shipSince(nonce, since uint64) (recs [][]byte, curNonce, next uint64, resync bool, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.ship == nil {
		return nil, 0, 0, false, fmt.Errorf("core: store does not ship its WAL (not a shard primary)")
	}
	curNonce = m.ship.nonce
	if nonce != curNonce || since > uint64(len(m.ship.log)) {
		return nil, curNonce, 0, true, nil
	}
	end := uint64(len(m.ship.log))
	if end-since > maxShipBatch {
		end = since + maxShipBatch
	}
	recs = append(recs, m.ship.log[since:end]...)
	return recs, curNonce, end, false, nil
}

// shipGenesis synthesises a full resync stream from the primary's current
// state: one insert record per library document, then one full publish
// record carrying the covered prefix, the cached collection statistics
// and the codebook. Applying it on ANY follower state converges (inserts
// dedup, the full publish resets and repopulates). The returned position
// is where incremental pulls resume.
func (m *Mirror) shipGenesis() (recs [][]byte, nonce, pos uint64, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.ship == nil {
		return nil, 0, 0, fmt.Errorf("core: store does not ship its WAL (not a shard primary)")
	}
	add := func(r walRecord) error {
		p, merr := json.Marshal(&r)
		if merr != nil {
			return merr
		}
		recs = append(recs, p)
		return nil
	}
	annB, _ := m.DB.BAT(LibrarySet + "_annotation")
	for i, url := range m.order {
		r := walRecord{Op: "insert", URL: url}
		if annB != nil {
			if v, ok := annB.Find(bat.OID(i)); ok {
				r.Annotation, _ = v.(string)
			}
		}
		if i < len(m.globalOIDs) {
			g := m.globalOIDs[i]
			r.Global = &g
		}
		if err := add(r); err != nil {
			return nil, 0, 0, err
		}
	}
	covered := m.coveredLocked()
	if m.indexed && m.lastAnnStats != nil && m.lastImgStats != nil {
		docs := make([]walDoc, 0, covered)
		for i := 0; i < covered; i++ {
			docs = append(docs, walDoc{URL: m.order[i], Words: m.contentTerms[bat.OID(i)]})
		}
		if err := add(walRecord{
			Op: "publish", Base: 0, Full: true, Docs: docs,
			AnnStats: m.lastAnnStats, ImgStats: m.lastImgStats,
			Codebook: m.codebook, Tag: m.lastPublishTag,
		}); err != nil {
			return nil, 0, 0, err
		}
	}
	return recs, m.ship.nonce, uint64(len(m.ship.log)), nil
}

// ---- replication: follower side ----

// ReplState reports the follower's replication position: the primary
// incarnation nonce and the last stream position durably applied.
func (m *Mirror) ReplState() (nonce, pos uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.replNonce, m.replPos
}

// ApplyShipped replays stream records [from+1 … from+len] pulled from the
// primary under nonce, through the same apply paths local recovery uses.
// Each record is logged to the follower's own WAL stamped with its stream
// position, so a restart resumes pulling where durability ends. Errors
// mean the stream does not apply (divergence); the caller resyncs.
func (m *Mirror) ApplyShipped(payloads [][]byte, from, nonce uint64) error {
	for i, p := range payloads {
		var r walRecord
		if err := json.Unmarshal(p, &r); err != nil {
			return fmt.Errorf("core: shipped record: %w", err)
		}
		r.Ship, r.ShipNonce = from+uint64(i)+1, nonce
		if err := m.applyShippedRecord(r); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGenesis replays a full resync stream and installs the stream
// position incremental pulls resume from. Only the last record carries
// the durable position stamp: a crash mid-genesis leaves the previous
// nonce, which forces a fresh (idempotent) resync rather than resuming an
// incomplete one.
func (m *Mirror) ApplyGenesis(payloads [][]byte, nonce, pos uint64) error {
	for i, p := range payloads {
		var r walRecord
		if err := json.Unmarshal(p, &r); err != nil {
			return fmt.Errorf("core: resync record: %w", err)
		}
		if i == len(payloads)-1 {
			r.Ship, r.ShipNonce = pos, nonce
		}
		if err := m.applyShippedRecord(r); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.replPos, m.replNonce = pos, nonce
	m.mu.Unlock()
	return nil
}

// applyShippedRecord applies one stream record. WAL-append failures are
// reduced durability, not divergence: the in-memory apply succeeded, and
// an un-advanced durable position just makes a restarted follower re-pull
// an idempotent suffix.
func (m *Mirror) applyShippedRecord(r walRecord) error {
	switch r.Op {
	case "insert":
		if _, err := m.replayInserts([]walRecord{r}); err != nil {
			return err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		_ = m.logWAL(r)
		m.trackShipLocked(r)
		return nil
	case "feedback":
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.Thes != nil {
			m.Thes.Reinforce(r.Words, r.Concepts, r.Relevant)
		}
		_ = m.logWAL(r)
		m.trackShipLocked(r)
		return nil
	case "publish":
		if r.AnnStats == nil || r.ImgStats == nil {
			return fmt.Errorf("core: shipped publish without global statistics")
		}
		m.buildMu.Lock()
		defer m.buildMu.Unlock()
		m.mu.Lock()
		defer m.mu.Unlock()
		applied, err := m.applyStatsPublishLocked(r)
		if err != nil {
			return err
		}
		_ = m.logWAL(r)
		m.trackShipLocked(r)
		if applied {
			return m.publishEpochLocked()
		}
		return nil
	case "merge":
		if _, err := m.replayMerge(r); err != nil {
			return err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		_ = m.logWAL(r)
		m.trackShipLocked(r)
		return nil
	}
	return fmt.Errorf("core: unknown shipped WAL op %q", r.Op)
}

// trackShipLocked advances the follower's replication position to the
// record's stamp. Callers hold m.mu (write).
func (m *Mirror) trackShipLocked(r walRecord) {
	if r.Ship > m.replPos {
		m.replPos = r.Ship
		if r.ShipNonce != 0 {
			m.replNonce = r.ShipNonce
		}
	}
}
