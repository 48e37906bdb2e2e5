package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
	"mirror/internal/ir"
)

// refMergeSegs is the segment merge as it stood before merges kept their
// belief dictionaries: decode every input's postings term by term,
// concatenate them in input order and re-encode the flat run.
func refMergeSegs(views []*bat.BlockPostings) (bat.PostingsSeg, error) {
	nt := 0
	for _, bp := range views {
		nt = max(nt, bp.NTerms())
	}
	starts := []int64{0}
	p := bat.TermPostings{TFs: []int64{}}
	for t := 0; t < nt; t++ {
		for _, bp := range views {
			if t < bp.NTerms() {
				if err := p.AppendTerm(bp, t); err != nil {
					return bat.PostingsSeg{}, err
				}
			}
		}
		starts = append(starts, int64(len(p.Docs)))
	}
	return bat.EncodeBlockSegment(starts, p.Docs, p.TFs, p.Bels)
}

// segViews validates a CONTREP's segments as block views.
func segViews(t testing.TB, m *Mirror, prefix string) []*bat.BlockPostings {
	t.Helper()
	segs, err := ir.Segments(m.DB, prefix)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*bat.BlockPostings, len(segs))
	for i, s := range segs {
		if views[i], err = bat.NewBlockPostings(s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel); err != nil {
			t.Fatalf("%s segment %d: %v", prefix, i, err)
		}
	}
	return views
}

// requireSameColumns fails unless got and want hold the same seven
// columns byte for byte (floats by bit pattern).
func requireSameColumns(t testing.TB, label string, got, want bat.PostingsSeg) {
	t.Helper()
	for _, c := range []struct {
		name string
		g, w *bat.BAT
	}{{"_poststart", got.Start, want.Start}, {"_blkstart", got.BlkStart, want.BlkStart}, {"_blkdir", got.BlkDir, want.BlkDir}, {"_blkbdir", got.BlkBDir, want.BlkBDir}} {
		if !slices.Equal(c.g.Tail.Ints(), c.w.Tail.Ints()) {
			t.Fatalf("%s: %s differs from the reference merge", label, c.name)
		}
	}
	if !bytes.Equal(got.BlkDoc.Tail.Bytes(), want.BlkDoc.Tail.Bytes()) || !bytes.Equal(got.BlkBel.Tail.Bytes(), want.BlkBel.Tail.Bytes()) {
		t.Fatalf("%s: _blkdoc or _blkbel differs from the reference merge", label)
	}
	g, w := got.MaxBel.Tail.Floats(), want.MaxBel.Tail.Floats()
	if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: _maxbel differs from the reference merge", label)
	}
}

// checkEveryRange merges every run of two or more adjacent segments of
// every CONTREP both ways and requires the same columns. It returns the
// number of runs checked.
func checkEveryRange(t testing.TB, label string, m *Mirror) int {
	t.Helper()
	n := 0
	for _, prefix := range contrepPrefixes {
		views := segViews(t, m, prefix)
		for lo := 0; lo+2 <= len(views); lo++ {
			for hi := lo + 2; hi <= len(views); hi++ {
				got, err := bat.MergeBlockSegments(views[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				want, err := refMergeSegs(views[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				requireSameColumns(t, fmt.Sprintf("%s %s [%d,%d)", label, prefix, lo, hi), got, want)
				n++
			}
		}
	}
	return n
}

// checkedMerge applies one logged merge through apply and requires the
// merged slot to hold the reference merge's columns. It reports whether
// the merge applied.
func checkedMerge(t testing.TB, label string, m *Mirror, r walRecord, apply func() (bool, error)) bool {
	t.Helper()
	var want bat.PostingsSeg
	due := ir.SegmentCount(m.DB, r.Prefix) == r.SegsBefore
	if due {
		var err error
		if want, err = refMergeSegs(segViews(t, m, r.Prefix)[r.MergeLo:r.MergeHi]); err != nil {
			t.Fatal(err)
		}
	}
	applied, err := apply()
	if err != nil {
		t.Fatal(err)
	}
	if applied != due {
		t.Fatalf("%s: merge %+v applied=%v, expected %v", label, r, applied, due)
	}
	if applied {
		got := segViews(t, m, r.Prefix)
		segs, err := ir.Segments(m.DB, r.Prefix)
		if err != nil || len(got) != r.SegsBefore-(r.MergeHi-r.MergeLo-1) {
			t.Fatalf("%s: merge left %d segments (%v)", label, len(got), err)
		}
		requireSameColumns(t, fmt.Sprintf("%s %s merge [%d,%d)", label, r.Prefix, r.MergeLo, r.MergeHi), segs[r.MergeLo], want)
	}
	return applied
}

// openCheckpoint opens a copy of the store at dir from its checkpoint
// alone and returns it with the WAL records the store held.
func openCheckpoint(tb testing.TB, label, dir string) (*Mirror, []walRecord) {
	tb.Helper()
	work := filepath.Join(tb.TempDir(), "store")
	copyTree(tb, dir, work)
	recs, _, torn, err := replayWAL(filepath.Join(work, walName))
	if err != nil || torn {
		tb.Fatalf("%s: read WAL: torn=%v %v", label, torn, err)
	}
	if err := os.Remove(filepath.Join(work, walName)); err != nil {
		tb.Fatal(err)
	}
	m, _, err := OpenPersistent(PersistOptions{Dir: work})
	if err != nil {
		tb.Fatalf("%s: open checkpoint: %v", label, err)
	}
	tb.Cleanup(func() { m.ClosePersistent() })
	return m, recs
}

// replayRecords re-applies WAL records in recovery's order (a run of
// inserts as one batch), handing each merge record to merge instead.
func replayRecords(tb testing.TB, label string, m *Mirror, recs []walRecord, merge func(walRecord)) {
	tb.Helper()
	for len(recs) > 0 {
		n := 1
		for recs[0].Op == "insert" && n < len(recs) && recs[n].Op == "insert" {
			n++
		}
		if r := recs[0]; r.Op == "merge" {
			merge(r)
		} else if _, err := m.applyWALRecords(recs[:n]); err != nil {
			tb.Fatalf("%s: replay %s: %v", label, r.Op, err)
		}
		recs = recs[n:]
	}
}

// replayMergesChecked opens a copy of the store at dir from its
// checkpoint alone, then re-applies its WAL records in recovery's order,
// checking every range of segments before each logged merge and every
// merge that applies against the reference. A shard member's deferred
// publish is finished under its local statistics (the merge does not
// read them). It returns the numbers of merges applied and ranges
// checked.
func replayMergesChecked(t *testing.T, label, dir string) (merges, ranges int) {
	t.Helper()
	m, recs := openCheckpoint(t, label, dir)
	check := func(r walRecord, apply func() (bool, error)) {
		ranges += checkEveryRange(t, label, m)
		if checkedMerge(t, label, m, r, apply) {
			merges++
		}
	}
	replayRecords(t, label, m, recs, func(r walRecord) {
		if m.deferredDelta {
			if _, err := m.replayMerge(r); err != nil { // stashed for below
				t.Fatal(err)
			}
			return
		}
		check(r, func() (bool, error) { return m.replayMerge(r) })
	})
	if m.deferredDelta {
		m.mu.Lock()
		for _, prefix := range contrepPrefixes {
			if _, err := ir.AppendSegment(m.DB, prefix); err != nil {
				t.Fatal(err)
			}
			if err := ir.RefinalizeSegments(m.DB, prefix); err != nil {
				t.Fatal(err)
			}
		}
		deferred := m.deferredMerges
		m.deferredMerges, m.deferredDelta = nil, false
		m.mu.Unlock()
		for _, r := range deferred {
			check(r, func() (bool, error) { return m.replayMergeLocked(r) })
		}
	}
	ranges += checkEveryRange(t, label, m)
	return merges, ranges
}

// buildLoggedStore builds a persistent 3 000-document store in dir: a
// 400-document base build, checkpointed, then five Refreshes (publishes
// and merges) left in the WAL.
func buildLoggedStore(tb testing.TB, dir string) {
	tb.Helper()
	m, _, err := OpenPersistent(PersistOptions{Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	items := corpus.Generate(corpus.Config{N: 3000, W: 8, H: 8, Seed: 4, AnnotateRate: 0.9, ClassZipf: 1.3})
	for i, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			tb.Fatal(err)
		}
		switch {
		case i == 399:
			if err := m.BuildContentIndex(DefaultIndexOptions()); err != nil {
				tb.Fatal(err)
			}
			if _, err := m.Checkpoint(); err != nil {
				tb.Fatal(err)
			}
		case i > 399 && (i-399)%520 == 0 || i == len(items)-1:
			if _, err := m.Refresh(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := m.ClosePersistent(); err != nil {
		tb.Fatal(err)
	}
}

// TestMergeMatchesReferenceOnStores: on the committed fixtures and on a
// 3 000-document store built by a base build and five Refreshes, every
// merge the store's history logged, and every run of adjacent segments
// along the way, gives the seven columns the decode-and-re-encode merge
// gives, byte for byte.
func TestMergeMatchesReferenceOnStores(t *testing.T) {
	built := filepath.Join(t.TempDir(), "built")
	buildLoggedStore(t, built)

	total := 0
	for _, c := range []struct {
		label, dir string
		merges     int // merges the store's WAL applies
	}{
		{"store-v2-raw", preBlockFixture, 0},
		{"store-v3", v3Fixture, 2},
		{"store-v3-sharded/0", filepath.Join(v3ShardedFixture, shardDirName(0)), 0},
		{"store-v3-sharded/1", filepath.Join(v3ShardedFixture, shardDirName(1)), 1},
		{"built", built, -1},
	} {
		merges, ranges := replayMergesChecked(t, c.label, c.dir)
		if c.merges >= 0 && merges != c.merges {
			t.Errorf("%s: %d merges applied, want %d", c.label, merges, c.merges)
		}
		if c.merges < 0 && merges == 0 {
			t.Errorf("%s: the built store logged no merge", c.label)
		}
		t.Logf("%s: %d logged merges and %d segment runs match the reference", c.label, merges, ranges)
		total += merges
	}
	if total == 0 {
		t.Fatal("no merge was checked")
	}
}

// BenchmarkMergeSegments merges the six segments of a 3 000-document
// store's annotation CONTREP (buildLoggedStore's history replayed without
// its merges): "union" is bat.MergeBlockSegments, which keeps the belief
// dictionaries; "reencode" decodes every posting and re-encodes the run,
// as merges did before.
func BenchmarkMergeSegments(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "built")
	buildLoggedStore(b, dir)
	m, recs := openCheckpoint(b, "built", dir)
	replayRecords(b, "built", m, recs, func(walRecord) {})
	views := segViews(b, m, InternalSet+"_annotation")
	for _, c := range []struct {
		name  string
		merge func([]*bat.BlockPostings) (bat.PostingsSeg, error)
	}{{"union", bat.MergeBlockSegments}, {"reencode", refMergeSegs}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.merge(views); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
