package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirror/internal/ir"
)

// preBlockFixture is a committed store checkpointed in the pre-block-
// codec format: raw postings columns, manifest version 2 (the version
// every release before the block codec wrote). It is immutable history —
// no current code can write that layout, so it cannot be regenerated —
// and the cross-version tests below pin that today's binary still opens
// it, upgrades it losslessly, and answers exactly what the last binary
// that served the raw layout answered. (Built from corpus.Generate{N: 14,
// W: 48, H: 48, Seed: 7, AnnotateRate: 0.8}, features rgb_coarse + gabor,
// KMax 5.)
const preBlockFixture = "testdata/store-v2-raw"

// preBlockGolden holds the hit lists that last raw-serving binary (the
// parent of the commit that retired the raw scan) returned for the
// fixture opened in its native layout: dual-coding and annotation
// queries at k = 8, 3 and 0, default-score ties included.
const preBlockGolden = "testdata/store-v2-raw.golden.json"

// The v3 fixtures pin today's format — manifest version 3, block
// postings — together with the WAL record shapes recovery must keep
// replaying. Both were written, and their golden hit lists recorded, by
// the parent of the commit that added them, with the generator below
// (copy it into a _test.go file of this package to rebuild; the goldens
// are the hits of a copy of each fixture reopened by OpenPersistent,
// asserted equal to the live instance's hits before it closed, for the
// texts "forest" and "water sand sunshine" at k = 8, 3 and 0).
//
// v3Fixture: corpus.Generate{N: 14, W: 48, H: 48, Seed: 7,
// AnnotateRate: 0.8}; OpenPersistent; AddImage items 0–9;
// BuildContentIndex (rgb_coarse + gabor, KMax 5); Checkpoint. Then,
// left un-checkpointed in the WAL: for items 10 and 11, AddImage +
// Refresh (the second Refresh compacts); a feedback session on "forest":
// one round at k = 4, then feedback (first hit relevant, last hit
// non-relevant); then ClosePersistent. WAL: insert, publish, insert, publish, merge, merge,
// feedback, feedback.
//
// v3ShardedFixture: corpus.Generate{N: 16, W: 48, H: 48, Seed: 5,
// AnnotateRate: 0.8}; OpenShardedPersistent{Shards: 2}; AddImage items
// 0–11; BuildContentIndex (rgb_coarse, KMax 4); Checkpoint; AddImage
// items 12–15; Refresh (a delta publish in each shard's WAL, the
// in-process stats-less record; shard 1 also logs a merge); then
// ClosePersistent.
const (
	v3Fixture              = "testdata/store-v3"
	v3Golden               = "testdata/store-v3.golden.json"
	v3ShardedFixture       = "testdata/store-v3-sharded"
	v3ShardedFixtureGolden = "testdata/store-v3-sharded.golden.json"
)

type goldenCase struct {
	Surface string `json:"surface"` // "dual" or "annotations"
	Text    string `json:"text"`
	K       int    `json:"k"`
	Hits    []Hit  `json:"hits"`
}

func loadPreBlockGolden(t *testing.T) []goldenCase {
	t.Helper()
	return loadGolden(t, preBlockGolden)
}

func loadGolden(t *testing.T, path string) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden file")
	}
	return cases
}

// assertGoldenHits replays every golden query against m and demands the
// recorded ranking hit-for-hit, scores bit-for-bit.
func assertGoldenHits(t *testing.T, label string, m ranker, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		stmt := StmtAnnotation
		if c.Surface == "dual" {
			stmt = StmtDual
		}
		got, err := rank(m, Query{Stmt: stmt, Text: c.Text, K: c.K})
		if err != nil {
			t.Fatalf("%s: %s %q k=%d: %v", label, c.Surface, c.Text, c.K, err)
		}
		assertSameHits(t, fmt.Sprintf("%s: %s %q k=%d", label, c.Surface, c.Text, c.K), c.Hits, got)
	}
}

func manifestVersion(t *testing.T, dir string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man.Version
}

func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, sp, dp)
			continue
		}
		in, err := os.Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(dp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertBlockSegments fails unless every CONTREP of m is stored as block
// segments with no legacy raw column left.
func assertBlockSegments(t *testing.T, label string, m *Mirror) {
	t.Helper()
	for _, prefix := range contrepPrefixes {
		n := ir.SegmentCount(m.DB, prefix)
		if n == 0 {
			t.Fatalf("%s: %s is not segmented", label, prefix)
		}
		for s := 0; s < n; s++ {
			if _, ok := m.DB.BAT(ir.SegColumn(prefix, s, "_blkdoc")); !ok {
				t.Fatalf("%s: %s segment %d has no block columns", label, prefix, s)
			}
			for _, suffix := range []string{"_postdoc", "_posttf", "_postbel"} {
				if _, ok := m.DB.BAT(ir.SegColumn(prefix, s, suffix)); ok {
					t.Fatalf("%s: %s segment %d still carries the raw %s column", label, prefix, s, suffix)
				}
			}
		}
	}
}

// TestPreBlockFixtureOpensAndConverts is the cross-version guarantee:
// a store checkpointed by a pre-block-codec release (manifest v2, raw
// postings) opens under today's binary, is upgraded to block segments in
// memory, serves from them, answers the golden hit lists hit-for-hit,
// and persists the upgraded layout (manifest v3) at the next checkpoint.
func TestPreBlockFixtureOpensAndConverts(t *testing.T) {
	if v := manifestVersion(t, preBlockFixture); v != 2 {
		t.Fatalf("fixture manifest version = %d, want 2 (the fixture must stay pre-compression)", v)
	}
	golden := loadPreBlockGolden(t)
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, preBlockFixture, dir)

	// Pass 1: open — recovery upgrades.
	m, _, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true})
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	if !m.Indexed() {
		t.Fatal("fixture recovered unindexed")
	}
	assertBlockSegments(t, "opened", m)
	decoded := m.PostingsStats().BlocksDecoded
	assertGoldenHits(t, "upgraded", m, golden)
	if m.PostingsStats().BlocksDecoded == decoded {
		t.Fatal("golden queries decoded no postings blocks: the upgraded store is not serving the block scan")
	}
	// Footprint accounting is live after the upgrade. (No compression
	// assertion here: at 14 documents the per-block directories dominate;
	// the ≥3x ratio is pinned at scale by the query benchmark.)
	for _, pi := range m.PostingsStats().Stores {
		if pi.Segments > 0 && (pi.Bytes <= 0 || pi.RawBytes <= 0) {
			t.Errorf("%s: footprint not reported: %+v", pi.Prefix, pi)
		}
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()
	if v := manifestVersion(t, dir); v != 3 {
		t.Fatalf("post-upgrade checkpoint wrote manifest version %d, want 3", v)
	}

	// Pass 2: the upgraded store reopens from disk (block columns now
	// come through the pool) and still answers identically.
	m2, _, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true})
	if err != nil {
		t.Fatalf("reopen upgraded store: %v", err)
	}
	defer m2.ClosePersistent()
	assertBlockSegments(t, "reopened", m2)
	assertGoldenHits(t, "reopened", m2, golden)
}

// TestUpgradeIsIdempotent: the upgrade runs at every open, so on a store
// that is already block (here: the fixture, upgraded by the open itself)
// it must touch nothing — no BAT replaced, so nothing turns dirty and
// the next checkpoint writes no postings column again.
func TestUpgradeIsIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, preBlockFixture, dir)
	m, _, err := OpenPersistent(PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.ClosePersistent()
	before := m.DB.Snapshot()
	for _, prefix := range contrepPrefixes {
		if err := ir.UpgradeLayout(m.DB, prefix); err != nil {
			t.Fatal(err)
		}
	}
	after := m.DB.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("second upgrade changed the BAT count: %d -> %d", len(before), len(after))
	}
	for name, b := range after {
		if before[name] != b {
			t.Fatalf("second upgrade replaced %s", name)
		}
	}
	assertGoldenHits(t, "after a second upgrade", m, loadPreBlockGolden(t))
}

// TestCorruptLegacyStoreFailsOpen: a v2 store whose raw postings offsets
// are damaged on disk (CRC verification off, as -verify=false runs) must
// fail OpenPersistent with an error — the upgrade is the only reader of
// those columns, and it validates them — never panic.
func TestCorruptLegacyStoreFailsOpen(t *testing.T) {
	for name, corrupt := range map[string]func(offsets []byte){
		"offset past the postings": func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<40) },
		"negative offset":          func(b []byte) { binary.LittleEndian.PutUint64(b[8:], ^uint64(0)) },
		"non-monotone offsets":     func(b []byte) { copy(b[8:16], b[len(b)-8:]) },
		"non-zero first offset":    func(b []byte) { binary.LittleEndian.PutUint64(b, 1) },
	} {
		dir := filepath.Join(t.TempDir(), "store")
		copyTree(t, preBlockFixture, dir)
		path := filepath.Join(dir, "bats", "ImageLibraryInternal_annotation_poststart.g1.tail")
		offsets, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(offsets)
		if err := os.WriteFile(path, offsets, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenPersistent(PersistOptions{Dir: dir})
		if err == nil {
			m.ClosePersistent()
			t.Errorf("%s: corrupt legacy store opened", name)
		}
	}
}

// walOps lists the ops of the WAL records in dir, in log order.
func walOps(t *testing.T, dir string) []string {
	t.Helper()
	recs, _, torn, err := replayWAL(filepath.Join(dir, walName))
	if err != nil || torn {
		t.Fatalf("read WAL in %s: torn=%v %v", dir, torn, err)
	}
	ops := make([]string, len(recs))
	for i, r := range recs {
		ops[i] = r.Op
	}
	return ops
}

// TestV3FixtureOpensAndReplays: the committed v3 store recovers — its
// checkpoint plus a WAL tail of every standalone record kind — to the
// recorded rankings, and still does after a checkpoint folds the tail in
// and the store reopens from disk alone.
func TestV3FixtureOpensAndReplays(t *testing.T) {
	if v := manifestVersion(t, v3Fixture); v != 3 {
		t.Fatalf("fixture manifest version = %d, want 3", v)
	}
	want := []string{"insert", "publish", "insert", "publish", "merge", "merge", "feedback", "feedback"}
	if got := walOps(t, v3Fixture); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fixture WAL ops = %v, want %v", got, want)
	}
	golden := loadGolden(t, v3Golden)
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, v3Fixture, dir)

	m, stats, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true})
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	if stats.WALRecords != len(want) || stats.WALSkipped != 0 || stats.TornTail {
		t.Fatalf("recovery = %+v, want %d records applied", stats, len(want))
	}
	assertGoldenHits(t, "recovered", m, golden)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.ClosePersistent()

	m2, stats, err := OpenPersistent(PersistOptions{Dir: dir, Verify: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.ClosePersistent()
	if stats.WALRecords != 0 {
		t.Fatalf("checkpointed store replayed %d WAL records", stats.WALRecords)
	}
	assertGoldenHits(t, "reopened", m2, golden)
}

// TestV3ShardedFixtureOpensAndReplays: the committed 2-shard root
// recovers — per-shard checkpoints plus WAL tails holding a delta
// publish — to the recorded global rankings, before and after a
// checkpoint and reopen.
func TestV3ShardedFixtureOpensAndReplays(t *testing.T) {
	for i := 0; i < 2; i++ {
		shard := filepath.Join(v3ShardedFixture, shardDirName(i))
		if v := manifestVersion(t, shard); v != 3 {
			t.Fatalf("shard %d manifest version = %d, want 3", i, v)
		}
		if ops := fmt.Sprint(walOps(t, shard)); !strings.Contains(ops, "publish") {
			t.Fatalf("shard %d WAL ops %s hold no delta publish", i, ops)
		}
	}
	golden := loadGolden(t, v3ShardedFixtureGolden)
	dir := filepath.Join(t.TempDir(), "root")
	copyTree(t, v3ShardedFixture, dir)

	e, stats, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	if stats.Shards != 2 || stats.WALRecords == 0 || stats.WALSkipped != 0 {
		t.Fatalf("recovery = %+v, want 2 shards replaying their whole WAL tails", stats)
	}
	// Shard 1's WAL ends with a merge of its annotation CONTREP's two
	// segments into one; recovery leaves it as the crash did.
	segs := -1
	for _, info := range e.Segments() {
		if info.Shard == 1 && info.Prefix == InternalSet+"_annotation" {
			segs = len(info.Segs)
		}
	}
	if segs != 1 {
		t.Fatalf("shard 1's annotation CONTREP recovered with %d segments, want the logged merge's 1", segs)
	}
	assertGoldenHits(t, "recovered", e, golden)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.ClosePersistent(); err != nil {
		t.Fatal(err)
	}

	e2, _, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.ClosePersistent()
	assertGoldenHits(t, "reopened", e2, golden)
}

// TestReopenedStoreCheckpointsNothing: a store opened from disk (the mmap
// path) and left unchanged writes no BAT at its checkpoints — the pool
// recognises every BAT it loaded as clean.
func TestReopenedStoreCheckpointsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	copyTree(t, v3Fixture, dir)
	m, _, err := OpenPersistent(PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil { // folds the WAL tail in
		t.Fatal(err)
	}
	m.ClosePersistent()

	m2, _, err := OpenPersistent(PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.ClosePersistent()
	for i := 0; i < 2; i++ {
		st, err := m2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if st.Written != 0 || st.Skipped == 0 {
			t.Fatalf("checkpoint %d of an unchanged reopened store wrote %d BATs (skipped %d), want 0", i+1, st.Written, st.Skipped)
		}
	}
}

func assertSameHits(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].OID != got[i].OID || want[i].Score != got[i].Score || want[i].URL != got[i].URL {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}
