package core

import (
	"fmt"
	"slices"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/thesaurus"
)

// Incremental online indexing: Refresh picks up every document ingested
// since the last publish, runs extraction against the FROZEN feature
// codebooks (new documents are assigned to existing clusters — discovering
// new clusters remains the explicit offline BuildContentIndex), derives a
// delta index segment, recomputes the statistics-dependent beliefs, and
// publishes a fresh epoch. Queries keep serving the previous epoch
// throughout; the swap is one atomic pointer store.
//
// Compaction rides along: after each publish, the bounded-fan-in tiered
// policy (ir.PickMerge) concatenates small delta segments so the segment
// count stays logarithmic in the number of refreshes. mirrord's
// -refresh-every loop is the background thread that drives both.

// mergeFanIn bounds how many segments one compaction merges.
const mergeFanIn = 8

// RefreshStats reports what a Refresh (or engine Refresh) published.
type RefreshStats struct {
	NewDocs  int   // documents newly covered by this publish
	Docs     int   // documents covered after (engine-wide on a ShardedEngine)
	Epoch    int64 // published epoch number (max across shards when sharded)
	Merges   int   // segment merges applied by the compaction policy
	Segments int   // max segment count over all CONTREPs after compaction
}

// Refresh indexes every pending document incrementally and publishes a
// new epoch. It is cheap relative to BuildContentIndex — extraction runs
// only over the delta, clustering is frozen-codebook assignment, and old
// segments keep their structure (only their belief annotations are
// rewritten, because every publish moves the collection statistics and
// exactness demands all beliefs reflect them). Returns ErrNotIndexed
// before the first full build; refuses stores built by a distributed
// pipeline whose daemons kept their models (no codebook).
func (m *Mirror) Refresh() (RefreshStats, error) {
	m.buildMu.Lock()
	defer m.buildMu.Unlock()
	pipe := newLocalPipeline(func(url string) (*media.Image, bool) { return m.Raster(url) })
	return m.refreshWith(pipe)
}

// refreshWith is Refresh against an arbitrary pipeline (tests inject
// deterministic extractors). Caller holds buildMu.
func (m *Mirror) refreshWith(pipe segmentExtractor) (RefreshStats, error) {
	defer pipe.close()
	var st RefreshStats
	m.mu.RLock()
	if m.shardCount > 0 {
		m.mu.RUnlock()
		return st, fmt.Errorf("core: Refresh on a shard member; refresh the sharded engine instead")
	}
	if !m.indexed {
		m.mu.RUnlock()
		return st, fmt.Errorf("core: Refresh: %w", ErrNotIndexed)
	}
	covered := m.coveredLocked()
	pending := append([]string(nil), m.order[covered:]...)
	cb := m.codebook
	m.mu.RUnlock()

	if len(pending) == 0 {
		// Nothing to index; report the serving state.
		if ep := m.currentEpoch(); ep != nil {
			st.Docs, st.Epoch, st.Segments = ep.Docs, ep.Seq, m.maxSegments()
		}
		return st, nil
	}
	if cb == nil {
		return st, fmt.Errorf("core: Refresh needs the frozen feature codebook, which this store lacks " +
			"(built by a distributed pipeline or an older version); run BuildContentIndex once locally")
	}
	// The expensive part — segmentation, feature extraction, cluster
	// assignment — runs WITHOUT any store lock: inserts and queries
	// proceed concurrently. Documents ingested after the snapshot above
	// simply wait for the next refresh.
	words, err := assignExtraction(pipe, cb, pending)
	if err != nil {
		return st, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishDeltaLocked(pending, words, nil, nil)
}

// coveredLocked reports how many documents the internal set covers;
// callers hold m.mu (either mode).
func (m *Mirror) coveredLocked() int {
	if def, ok := m.DB.Set(InternalSet); ok {
		return def.Card
	}
	return 0
}

// covered is coveredLocked with its own lock.
func (m *Mirror) covered() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.coveredLocked()
}

// finishDeferredDelta completes a shard's structurally replayed publish
// records: the engine has re-registered the global statistics overrides
// and unioned the vocabulary, so segment derivation and belief
// recomputation can run, then the stashed merges replay under their
// SegsBefore guard, followed by the shard's epoch publish. Also the
// no-op-delta path for shards that replayed nothing (their beliefs still
// move when siblings' deltas changed df/N/avgdl). It returns how many
// stashed merges applied.
func (m *Mirror) finishDeferredDelta() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, prefix := range contrepPrefixes {
		if _, err := ir.AppendSegment(m.DB, prefix); err != nil {
			return 0, err
		}
		if err := ir.RefinalizeSegments(m.DB, prefix); err != nil {
			return 0, err
		}
	}
	merged := 0
	for _, r := range m.deferredMerges {
		applied, err := m.replayMergeLocked(r)
		if err != nil {
			return merged, err
		}
		if applied {
			merged++
		}
	}
	m.deferredMerges = nil
	m.deferredDelta = false
	return merged, m.publishEpochLocked()
}

// maxSegments reports the larger CONTREP segment count (introspection).
func (m *Mirror) maxSegments() int {
	n := 0
	for _, prefix := range contrepPrefixes {
		if c := ir.SegmentCount(m.DB, prefix); c > n {
			n = c
		}
	}
	return n
}

// publishDeltaLocked appends urls (with their pre-computed content words)
// to the internal set as a new index segment, refinalizes beliefs under
// the moved statistics, logs the publish to the WAL, compacts, and swaps
// in the new epoch. annVocab/imgVocab, when non-nil, are unioned into the
// dictionaries before finalization (the sharded engine passes the global
// vocabulary; statistics overrides are registered by the engine
// beforehand). Callers hold m.mu (write) and buildMu.
func (m *Mirror) publishDeltaLocked(urls []string, words map[string][]string, annVocab, imgVocab []string) (RefreshStats, error) {
	var st RefreshStats
	base := m.coveredLocked()
	walDocs, err := m.applyDeltaLocked(urls, words, annVocab, imgVocab, true)
	if err != nil {
		return st, err
	}

	// Durability: the publish record carries each delta document's content
	// words (extraction is not re-runnable at recovery — rasters are never
	// persisted), so WAL replay reconstructs this exact publish. A WAL
	// error does not undo the publish; it reports reduced durability, like
	// AddImage's contract (the next checkpoint persists everything).
	var walErr error
	if len(walDocs) > 0 {
		walErr = m.logWAL(walRecord{Op: "publish", Base: base, Docs: walDocs})
	}
	st.Merges = m.compactLocked()
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

// applyDeltaLocked is the shared delta-apply path: the live publish and
// WAL replay both run it, so a replayed publish reconstructs the exact
// index state the live one built. It inserts the documents into the
// internal set, unions vocabularies, derives the delta segment and — when
// refinalize is true (standalone stores; a shard defers until its engine
// has re-registered the global statistics) — recomputes beliefs and
// extends the thesaurus. Callers hold m.mu (write).
func (m *Mirror) applyDeltaLocked(urls []string, words map[string][]string, annVocab, imgVocab []string, refinalize bool) ([]walDoc, error) {
	walDocs := make([]walDoc, len(urls))
	for i, url := range urls {
		walDocs[i] = walDoc{URL: url, Words: words[url]}
	}
	staged, thDocs := m.stageDocsLocked(m.coveredLocked(), walDocs)
	for i := range walDocs { // the publish record logs the deduplicated words
		walDocs[i].Words = staged[i].terms
	}
	if refinalize && len(thDocs) > 0 {
		// The thesaurus fold shares no state with the CONTREP work below,
		// so it runs beside it on one goroutine (the shared instance
		// synchronises internally, so concurrent Associates stay safe).
		// Joined on every return path: the caller's WAL publish record,
		// compaction and epoch publish see the folded thesaurus.
		folded := make(chan *thesaurus.Thesaurus, 1)
		go func(t *thesaurus.Thesaurus) {
			if t == nil {
				t = thesaurus.Build(thDocs)
			} else {
				t.AddDocs(thDocs)
			}
			folded <- t
		}(m.Thes)
		defer func() { m.Thes = <-folded }()
	}
	if err := m.insertStagedLocked(staged); err != nil {
		return nil, fmt.Errorf("core: delta insert %w", err)
	}
	if annVocab != nil {
		if err := ir.EnsureDictTerms(m.DB, InternalSet+"_annotation", annVocab); err != nil {
			return nil, err
		}
	}
	if imgVocab != nil {
		if err := ir.EnsureDictTerms(m.DB, InternalSet+"_image", imgVocab); err != nil {
			return nil, err
		}
	}
	if !refinalize {
		// Shard member: segment derivation and belief recomputation need
		// the engine's global statistics; it runs finishDeferredDelta once
		// every shard has replayed. Stash the thesaurus contribution for
		// the engine to fold into the shared instance.
		m.deferredThes = append(m.deferredThes, thDocs...)
		m.deferredDelta = true
		return walDocs, nil
	}
	for _, prefix := range contrepPrefixes {
		if _, err := ir.AppendSegment(m.DB, prefix); err != nil {
			return nil, err
		}
		if err := ir.RefinalizeSegments(m.DB, prefix); err != nil {
			return nil, err
		}
	}
	return walDocs, nil
}

// stagedDoc is one document on its way into the internal set, its
// annotation analysed once: toks feeds both the annotation CONTREP insert
// and the thesaurus training doc.
type stagedDoc struct {
	url   string
	toks  []string // analysed annotation tokens, sorted
	terms []string // deduplicated, sorted content words
}

// stageDocsLocked reads the library annotation of position base+i for
// docs[i] and analyses it once. It returns the staged documents and the
// thesaurus training docs of the annotated ones, in order. The
// annotations are read on the caller's goroutine (BAT.Find may build the
// column's hash); the analysis, the costly part, runs on parallelEach
// with each result stored at its document's position, so the output is
// the serial loop's at any GOMAXPROCS. Live Refresh, WAL replay and the
// base build all stage through here. Callers hold m.mu.
func (m *Mirror) stageDocsLocked(base int, docs []walDoc) ([]stagedDoc, []thesaurus.Doc) {
	annB, _ := m.DB.BAT(LibrarySet + "_annotation")
	anns := make([]string, len(docs))
	if annB != nil {
		for i := range docs {
			if v, ok := annB.Find(orderOID(base + i)); ok {
				anns[i], _ = v.(string)
			}
		}
	}
	staged := make([]stagedDoc, len(docs))
	parallelEach(len(docs), func(i int) error {
		sd := stagedDoc{url: docs[i].URL, terms: dedupSorted(append([]string(nil), docs[i].Words...))}
		if anns[i] != "" {
			sd.toks = ir.Analyze(anns[i])
			// The CONTREP insert counts term frequencies over a sorted
			// copy of the tokens, and sorting sorted input is one linear
			// pass: sort here, on both cores. The thesaurus counts are
			// order-free.
			slices.Sort(sd.toks)
		}
		staged[i] = sd
		return nil
	})
	var thDocs []thesaurus.Doc
	for i, sd := range staged {
		if anns[i] != "" {
			thDocs = append(thDocs, thesaurus.Doc{Words: sd.toks, Concepts: sd.terms})
		}
	}
	return staged, thDocs
}

// insertStagedLocked appends staged documents to the internal set as one
// batch. The annotation goes in as its analysed tokens, which the CONTREP
// indexes exactly as it would the raw text. Callers hold m.mu (write).
func (m *Mirror) insertStagedLocked(staged []stagedDoc) error {
	urls := make([]string, len(staged))
	toks := make([][]string, len(staged))
	terms := make([][]string, len(staged))
	for i, sd := range staged {
		urls[i], toks[i], terms[i] = sd.url, sd.toks, sd.terms
	}
	first, err := m.DB.InsertBatch(InternalSet, map[string]any{
		"source": urls, "annotation": toks, "image": terms,
	})
	if err != nil {
		return err
	}
	for i, t := range terms {
		m.contentTerms[first+bat.OID(i)] = t
	}
	return nil
}

// compactLocked applies the tiered bounded-fan-in merge policy until no
// run qualifies, logging each merge so recovery replays the identical
// segment layout. Merges concatenate postings and copy beliefs —
// statistics do not move — so queries over the compacted layout are
// BUN-identical (the ir and bat segment tests pin this).
func (m *Mirror) compactLocked() int {
	merges := 0
	for _, prefix := range contrepPrefixes {
		for {
			stats := ir.SegmentStats(m.DB, prefix)
			sizes := make([]int, len(stats))
			for i, s := range stats {
				sizes[i] = s.Postings + s.Docs // empty-annotation deltas still weigh
			}
			lo, hi, ok := ir.PickMerge(sizes, mergeFanIn)
			if !ok {
				break
			}
			if err := ir.MergeSegments(m.DB, prefix, lo, hi); err != nil {
				break // structural mismatch: leave the layout as is, queries stay exact
			}
			// Best-effort logging, same durability contract as the publish
			// record above.
			_ = m.logWAL(walRecord{Op: "merge", Prefix: prefix, MergeLo: lo, MergeHi: hi, SegsBefore: len(stats)})
			merges++
		}
	}
	return merges
}

// orderOID converts an ingestion-order position to the library OID (they
// coincide: the library set is append-only in ingestion order).
func orderOID(pos int) uint64 { return uint64(pos) }
