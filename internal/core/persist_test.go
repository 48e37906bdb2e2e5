package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
)

// openStore opens (or reopens) a persistent Mirror on dir.
func openStore(t *testing.T, dir string) (*Mirror, RecoveryStats) {
	t.Helper()
	m, stats, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, walName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestWALRecoversInsertsAfterCrash inserts without checkpointing,
// "crashes" (abandons the instance), and reopens: the WAL must restore
// every insert.
func TestWALRecoversInsertsAfterCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, stats := openStore(t, dir)
	if stats.BATs != 0 || stats.WALRecords != 0 {
		t.Fatalf("fresh store reported recovery: %+v", stats)
	}
	urls := []string{"http://img/1", "http://img/2", "http://img/3"}
	for i, u := range urls {
		if err := m.AddImage(u, "annotation "+u, nil); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// Crash: no Checkpoint, no ClosePersistent.

	m2, stats2 := openStore(t, dir)
	defer m2.ClosePersistent()
	if stats2.WALRecords != 3 {
		t.Fatalf("replayed %d WAL records, want 3", stats2.WALRecords)
	}
	if got := m2.URLs(); len(got) != 3 || got[0] != urls[0] || got[2] != urls[2] {
		t.Fatalf("recovered URLs = %v", got)
	}
	src, ok := m2.DB.BAT(LibrarySet + "_source")
	if !ok || src.Len() != 3 {
		t.Fatalf("recovered source BAT missing or wrong length")
	}
	if v, _ := src.Find(bat.OID(1)); v != "http://img/2" {
		t.Fatalf("recovered source[1] = %v", v)
	}
	// The replayed insert must also be duplicate-guarded.
	if err := m2.AddImage(urls[0], "", nil); err == nil {
		t.Fatal("duplicate insert after recovery should fail")
	}
}

// TestCheckpointTruncatesWALAndIsIncremental verifies the WAL empties
// at a checkpoint, a second checkpoint writes nothing, and a small
// mutation rewrites only the touched BATs.
func TestCheckpointTruncatesWALAndIsIncremental(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	defer m.ClosePersistent()
	for _, u := range []string{"a", "b", "c", "d"} {
		if err := m.AddImage("http://img/"+u, "the annotation "+u, nil); err != nil {
			t.Fatal(err)
		}
	}
	if walSize(t, dir) == 0 {
		t.Fatal("inserts did not reach the WAL")
	}
	st, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Written == 0 {
		t.Fatal("initial checkpoint wrote nothing")
	}
	total := st.Written
	if walSize(t, dir) != 0 {
		t.Fatal("checkpoint did not truncate the WAL")
	}

	// Clean checkpoint: nothing to write.
	st, err = m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Written != 0 || st.Skipped != total {
		t.Fatalf("clean checkpoint wrote %d / skipped %d, want 0/%d", st.Written, st.Skipped, total)
	}

	// One insert dirties only the library-set columns.
	if err := m.AddImage("http://img/e", "fresh", nil); err != nil {
		t.Fatal(err)
	}
	st, err = m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Written == 0 || st.Written >= total {
		t.Fatalf("incremental checkpoint wrote %d of %d BATs; want 0 < written < total", st.Written, total)
	}

	// Restart from the checkpoint alone (WAL is empty).
	m2, stats := openStore(t, dir)
	defer m2.ClosePersistent()
	if stats.WALRecords != 0 {
		t.Fatalf("WAL should be empty after checkpoint, replayed %d", stats.WALRecords)
	}
	if m2.Size() != 5 {
		t.Fatalf("recovered size = %d, want 5", m2.Size())
	}
}

// TestTornWALTailIsTruncatedLoudly appends garbage (a torn write) after
// valid records: recovery must keep the valid prefix, report the tear,
// and leave a WAL that accepts new appends.
func TestTornWALTailIsTruncatedLoudly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	if err := m.AddImage("http://img/1", "one", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddImage("http://img/2", "two", nil); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: half a frame of garbage at the tail.
	wf, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	m2, stats := openStore(t, dir)
	if !stats.TornTail {
		t.Fatal("torn WAL tail not reported")
	}
	if stats.WALRecords != 2 || m2.Size() != 2 {
		t.Fatalf("recovered %d records, size %d; want 2, 2", stats.WALRecords, m2.Size())
	}
	// The tear is gone: new inserts append after the valid prefix and a
	// further restart sees all three.
	if err := m2.AddImage("http://img/3", "three", nil); err != nil {
		t.Fatal(err)
	}
	m3, stats3 := openStore(t, dir)
	defer m3.ClosePersistent()
	if stats3.TornTail || stats3.WALRecords != 3 || m3.Size() != 3 {
		t.Fatalf("post-tear recovery: %+v size %d; want 3 records, size 3", stats3, m3.Size())
	}
}

// TestCrashBetweenCheckpointAndWALResetIsIdempotent simulates the
// narrow crash window after a checkpoint's manifest commit but before
// the WAL truncate: the stale WAL records are already in the
// checkpoint, and replay must skip them instead of bricking the store.
func TestCrashBetweenCheckpointAndWALResetIsIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	for _, u := range []string{"a", "b", "c"} {
		if err := m.AddImage("http://img/"+u, "annotation "+u, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Pool checkpoint commits, but the process "dies" before wal.reset.
	m.mu.Lock()
	extra, err := m.persistExtraLocked()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.pool.Checkpoint(m.DB.Snapshot(), extra); err != nil {
		t.Fatal(err)
	}
	m.mu.Unlock()
	if walSize(t, dir) == 0 {
		t.Fatal("precondition: WAL should still hold the stale records")
	}

	m2, stats := openStore(t, dir)
	defer m2.ClosePersistent()
	if stats.WALSkipped != 3 || stats.WALRecords != 0 {
		t.Fatalf("stale WAL replay: applied %d, skipped %d; want 0 applied, 3 skipped", stats.WALRecords, stats.WALSkipped)
	}
	if m2.Size() != 3 {
		t.Fatalf("size after idempotent recovery = %d, want 3 (no duplicates)", m2.Size())
	}
	src, _ := m2.DB.BAT(LibrarySet + "_source")
	if src.Len() != 3 {
		t.Fatalf("source BAT has %d rows, want 3", src.Len())
	}
}

// TestCorruptHeapFileFailsRecoveryLoudly flips bytes in a checkpointed
// heap file: OpenPersistent must refuse rather than serve silent
// partial state.
func TestCorruptHeapFileFailsRecoveryLoudly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	for _, u := range []string{"a", "b", "c"} {
		if err := m.AddImage("http://img/"+u, "annotation "+u, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()

	// Corrupt every byte-heap of the library source column we can find.
	bdir := filepath.Join(dir, "bats")
	des, err := os.ReadDir(bdir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, de := range des {
		name := de.Name()
		if len(name) > 0 && de.Type().IsRegular() {
			info, _ := de.Info()
			if info.Size() > 8 && filepath.Ext(name) == ".heap" {
				p := filepath.Join(bdir, name)
				data, _ := os.ReadFile(p)
				data[0] ^= 0xFF
				os.WriteFile(p, data, 0o644)
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Skip("no byte-heap files found to corrupt")
	}
	if _, _, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true}); err == nil {
		t.Fatal("recovery from a corrupt heap file should fail loudly")
	}
}

// TestFeedbackReplayedAcrossRestart runs the full pipeline, checkpoints,
// applies relevance feedback, crashes, and reopens: the thesaurus must
// come back with the feedback applied (WAL), identical to the
// pre-crash state.
func TestFeedbackReplayedAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	items := corpus.Generate(corpus.Config{N: 16, W: 48, H: 48, Seed: 5, AnnotateRate: 0.8})
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 5
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()

	// Restart 1: thesaurus rebuilt from the checkpoint. Apply feedback.
	m1, _ := openStore(t, dir)
	text := corpus.CanonicalTerm(mostAnnotatedClass(items))
	sess, err := m1.NewSession(text)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := rank(m1, sess.Query(4))
	if err != nil || len(hits) == 0 {
		t.Fatalf("session run: %v (%d hits)", err, len(hits))
	}
	if _, err := m1.SessionFeedback(sess, []bat.OID{hits[0].OID}, nil); err != nil {
		t.Fatal(err)
	}
	wantAssoc := m1.Thes.Associate(AnalyzeQuery(text), 8)
	// Crash without checkpoint.

	// Restart 2: same checkpoint + WAL replay of the feedback.
	m2, stats := openStore(t, dir)
	defer m2.ClosePersistent()
	if stats.WALRecords == 0 {
		t.Fatal("feedback did not reach the WAL")
	}
	gotAssoc := m2.Thes.Associate(AnalyzeQuery(text), 8)
	if len(gotAssoc) != len(wantAssoc) {
		t.Fatalf("associations after replay: %d want %d", len(gotAssoc), len(wantAssoc))
	}
	for i := range wantAssoc {
		if gotAssoc[i].Concept != wantAssoc[i].Concept ||
			gotAssoc[i].Belief != wantAssoc[i].Belief {
			t.Fatalf("association %d after replay = %+v, want %+v", i, gotAssoc[i], wantAssoc[i])
		}
	}
}

// TestFeedbackOnUnknownOIDLogsNothing: a judgment of a document the
// store does not hold has no cluster words, so it neither moves the
// session nor appends to the WAL — a client cannot grow the log with
// judgments of made-up OIDs.
func TestFeedbackOnUnknownOIDLogsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, v3Fixture, dir)
	m, _ := openStore(t, dir)
	defer m.ClosePersistent()
	sess, err := m.NewSession("forest")
	if err != nil {
		t.Fatal(err)
	}
	before := walSize(t, dir)
	next, err := m.SessionFeedback(sess, []bat.OID{1 << 40}, []bat.OID{bat.OID(m.Size())})
	if err != nil {
		t.Fatal(err)
	}
	if after := walSize(t, dir); after != before {
		t.Fatalf("judging unknown OIDs grew the WAL %d → %d bytes", before, after)
	}
	if !slices.Equal(next.Concepts, sess.Concepts) || !slices.Equal(next.Weights, sess.Weights) || next.Round != 1 {
		t.Fatalf("judging unknown OIDs moved the session: %+v → %+v", sess, next)
	}
}

// TestPersistentQueriesMatchSnapshot asserts a store reopened through
// the pool (mmap) answers ranked queries identically to the read-only
// Load of the same checkpoint.
func TestPersistentQueriesMatchSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, _ := openStore(t, dir)
	items := corpus.Generate(corpus.Config{N: 16, W: 48, H: 48, Seed: 9, AnnotateRate: 0.8})
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 5
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()

	mp, _ := openStore(t, dir)
	defer mp.ClosePersistent()
	ms, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	text := corpus.CanonicalTerm(mostAnnotatedClass(items))
	hp, err := mp.QueryAnnotations(text, 8)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := ms.QueryAnnotations(text, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hp) != len(hs) {
		t.Fatalf("pool hits %d, snapshot hits %d", len(hp), len(hs))
	}
	for i := range hp {
		if hp[i] != hs[i] {
			t.Fatalf("hit %d differs: pool %+v snapshot %+v", i, hp[i], hs[i])
		}
	}
}

// pinnedShards serves one fixed view: queries through it keep reading
// an old epoch after the store has published newer ones.
type pinnedShards struct {
	storeShards
	v ShardView
}

func (s pinnedShards) View() ShardView { return s.v }

// TestOldEpochSurvivesCheckpointOverMappedBATs: the pool unmaps only at
// Close, so an epoch taken on a store reopened through mmap keeps
// answering — bit for bit, while and after a Refresh + Checkpoint
// replaces and drops the mapped BATs it reads and unlinks their files.
func TestOldEpochSurvivesCheckpointOverMappedBATs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	items := corpus.Generate(corpus.Config{N: 14, W: 48, H: 48, Seed: 7, AnnotateRate: 0.8})
	m, _ := openStore(t, dir)
	for _, it := range items[:10] {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 5
	if err := m.BuildContentIndex(opts); err != nil {
		t.Fatal(err)
	}
	if err := m.AddImage(items[10].URL, items[10].Annotation, items[10].Scene.Img); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(); err != nil { // a second, small segment
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()

	m, _, err := OpenPersistent(PersistOptions{Dir: dir}) // mmap path
	if err != nil {
		t.Fatal(err)
	}
	defer m.ClosePersistent()
	loaded := m.DB.Snapshot()
	old := NewGather(pinnedShards{storeShards{m}, storeView{m.currentEpoch()}})
	queries := []string{"forest", "water sand sunshine"}
	want := map[string][]Hit{}
	for _, q := range queries {
		for _, dual := range []bool{false, true} {
			h, err := queryTop5(old, q, dual)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(q, dual)] = h
		}
	}
	check := func() error {
		for _, q := range queries {
			for _, dual := range []bool{false, true} {
				got, err := queryTop5(old, q, dual)
				if err != nil {
					return err
				}
				if w := want[fmt.Sprint(q, dual)]; !reflect.DeepEqual(got, w) {
					return fmt.Errorf("%q dual=%v: hits %+v, want %+v", q, dual, got, w)
				}
			}
		}
		return nil
	}

	// Query the old epoch throughout: the refresh compacts the segment
	// the reopen mapped, and the checkpoint replaces, drops and unlinks.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var during error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for during == nil {
			select {
			case <-done:
				return
			default:
				during = check()
			}
		}
	}()
	for _, it := range items[11:] {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
	}
	st, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cst, err := m.Checkpoint()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if during != nil {
		t.Fatalf("old epoch during refresh+checkpoint: %v", during)
	}
	if st.Merges == 0 || cst.Written == 0 {
		t.Fatalf("refresh merged %d times, checkpoint wrote %d BATs: the test needs both", st.Merges, cst.Written)
	}
	now := m.DB.Snapshot()
	replaced := 0
	for name, b := range loaded {
		if now[name] != b && b.Tail.Kind() != bat.KindVoid {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("no mapped BAT was replaced or dropped: the test exercises nothing")
	}
	if err := check(); err != nil {
		t.Fatalf("old epoch after checkpoint: %v", err)
	}
}

func queryTop5(g *Gather, text string, dual bool) ([]Hit, error) {
	if dual {
		return rank(g, Query{Stmt: StmtDual, Text: text, K: 5})
	}
	return g.QueryAnnotations(text, 5)
}
