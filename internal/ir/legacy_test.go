package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// writeLegacyRawSegs rewrites every segment of the CONTREP into the
// retired raw layout (_poststart/_postdoc/_posttf/_postbel/_maxbel, no
// block columns) — what a store checkpointed before the block codec
// presents at open. Test-only: production code can read this layout
// (readLegacyRawSeg) but never writes it.
func writeLegacyRawSegs(t *testing.T, db *moa.Database, prefix string) {
	t.Helper()
	a := access(db)
	for s := 0; s < maxSeg(db, prefix); s++ {
		sd, err := readSegData(a, prefix, s)
		if err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		for _, suffix := range blockSegSuffixes {
			a.del(SegColumn(prefix, s, suffix))
		}
		a.put(SegColumn(prefix, s, "_poststart"), adoptDense(bat.ColumnOfInts(sd.starts)))
		a.put(SegColumn(prefix, s, "_postdoc"), adoptDense(bat.ColumnOfOIDs(sd.docs)))
		a.put(SegColumn(prefix, s, "_posttf"), adoptDense(bat.ColumnOfInts(sd.tfs)))
		a.put(SegColumn(prefix, s, "_postbel"), adoptDense(bat.ColumnOfFloats(sd.bels)))
		a.put(SegColumn(prefix, s, "_maxbel"), adoptDense(bat.ColumnOfFloats(sd.maxb)))
	}
}

// segmentedTestDB builds a multi-segment CONTREP (batch + two deltas)
// and its one-shot reference over the same documents.
func segmentedTestDB(t *testing.T, seed int64) (inc, ref *moa.Database) {
	t.Helper()
	const prefix = "Lib_body"
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, 30)
	for i := range texts {
		texts[i] = segTestDoc(rng, i)
	}
	inc, ref = segTestDB(t), segTestDB(t)
	for i, txt := range texts {
		segInsert(t, ref, i, txt)
	}
	if err := ref.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	for i, txt := range texts {
		segInsert(t, inc, i, txt)
		switch i {
		case 11:
			if err := inc.Finalize("Lib"); err != nil {
				t.Fatal(err)
			}
		case 19, 29:
			if _, err := AppendSegment(inc, prefix); err != nil {
				t.Fatal(err)
			}
			if err := RefinalizeSegments(inc, prefix); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := SegmentCount(inc, prefix); n != 3 {
		t.Fatalf("built %d segments, want 3", n)
	}
	return inc, ref
}

// TestUpgradeRawSegments: a segmented store in the legacy raw layout
// has no postings form the operators read until it is upgraded; it then
// holds block segments whose logical postings — beliefs bit-for-bit —
// equal a fresh build's, serves the pruned plan, leaves no raw column
// behind, and a second upgrade touches nothing.
func TestUpgradeRawSegments(t *testing.T) {
	const prefix = "Lib_body"
	db, ref := segmentedTestDB(t, 5)
	writeLegacyRawSegs(t, db, prefix)

	eng := moa.NewEngine(db)
	eng.Opts.TopK = 5
	if _, err := eng.Compile(`map[sum(THIS)](map[getBL(THIS.body, query, stats)](Lib));`, QueryParams([]string{"harbor"})); err == nil {
		t.Fatal("an un-upgraded raw store compiled a query over postings it does not hold")
	}

	if err := upgradeRawSegments(db, prefix); err != nil {
		t.Fatal(err)
	}
	assertDerivedEqual(t, ref, db, prefix, "upgraded")
	for s := 0; s < 3; s++ {
		if !segIsBlock(access(db), prefix, s) {
			t.Fatalf("segment %d still raw after the upgrade", s)
		}
		for _, suffix := range legacyRawSuffixes {
			if _, ok := db.BAT(SegColumn(prefix, s, suffix)); ok {
				t.Fatalf("upgrade left %s behind", SegColumn(prefix, s, suffix))
			}
		}
	}
	eng = moa.NewEngine(db)
	eng.Opts.TopK = 5
	if res, err := eng.Query(`map[sum(THIS)](map[getBL(THIS.body, query, stats)](Lib));`, QueryParams([]string{"harbor"})); err != nil || !res.Ranked {
		t.Fatalf("upgraded store does not serve the pruned plan (err=%v)", err)
	}

	before := db.Snapshot()
	if err := upgradeRawSegments(db, prefix); err != nil {
		t.Fatal(err)
	}
	for name, b := range db.Snapshot() {
		if before[name] != b {
			t.Fatalf("second upgrade rewrote %s", name)
		}
	}

	// Refinalize and merge run on the upgraded segments like on any other.
	if err := RefinalizeSegments(db, prefix); err != nil {
		t.Fatal(err)
	}
	if err := MergeSegments(db, prefix, 0, 3); err != nil {
		t.Fatal(err)
	}
	assertDerivedEqual(t, ref, db, prefix, "upgraded, refinalized, merged")
}

// TestUpgradeRawSegmentsMalformed: the legacy columns come straight off
// disk, so a corrupt store must fail the upgrade (and a merge that
// reaches it first, as WAL replay can) with an error, never an
// out-of-range panic. The offset cases are those the raw scan's view
// validation used to reject.
func TestUpgradeRawSegmentsMalformed(t *testing.T) {
	const prefix = "Lib_body"
	ints := func(v ...int64) *bat.BAT { return adoptDense(bat.ColumnOfInts(v)) }
	cases := []struct {
		name    string
		corrupt func(db *moa.Database, np int, starts []int64)
	}{
		{"intermediate offset past the postings", func(db *moa.Database, np int, starts []int64) {
			starts[1] = int64(np) + 5
			db.PutBAT(prefix+"_poststart", ints(starts...))
		}},
		{"negative offset", func(db *moa.Database, np int, starts []int64) {
			starts[0] = -1
			db.PutBAT(prefix+"_poststart", ints(starts...))
		}},
		{"non-monotone offsets", func(db *moa.Database, np int, starts []int64) {
			starts[1], starts[2] = int64(np), 0
			db.PutBAT(prefix+"_poststart", ints(starts...))
		}},
		{"last offset past the postings", func(db *moa.Database, np int, starts []int64) {
			starts[len(starts)-1] = int64(np) + 1
			db.PutBAT(prefix+"_poststart", ints(starts...))
		}},
		{"empty offsets", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_poststart", ints())
		}},
		{"offsets of the wrong kind", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_poststart", adoptDense(bat.ColumnOfFloats(make([]float64, len(starts)))))
		}},
		{"docs of the wrong kind", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_postdoc", ints(make([]int64, np)...))
		}},
		{"beliefs of the wrong kind", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_postbel", ints(make([]int64, np)...))
		}},
		{"tfs shorter than docs", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_posttf", ints(make([]int64, np-1)...))
		}},
		{"beliefs shorter than docs", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_postbel", adoptDense(bat.ColumnOfFloats(make([]float64, np-1))))
		}},
		{"bounds shorter than the dictionary", func(db *moa.Database, np int, starts []int64) {
			db.PutBAT(prefix+"_maxbel", adoptDense(bat.ColumnOfFloats(nil)))
		}},
		{"tf column missing", func(db *moa.Database, np int, starts []int64) {
			db.DropBAT(prefix + "_posttf")
		}},
		{"run not document-ascending", func(db *moa.Database, np int, starts []int64) {
			b, _ := db.BAT(prefix + "_postdoc")
			docs := append([]bat.OID(nil), b.Tail.OIDs()...)
			for t := 0; t+1 < len(starts); t++ {
				if lo, hi := starts[t], starts[t+1]; hi-lo >= 2 {
					docs[lo], docs[lo+1] = docs[lo+1], docs[lo]
					break
				}
			}
			db.PutBAT(prefix+"_postdoc", adoptDense(bat.ColumnOfOIDs(docs)))
		}},
	}
	for _, c := range cases {
		for _, op := range []string{"upgrade", "merge"} {
			db, _ := segmentedTestDB(t, 9)
			writeLegacyRawSegs(t, db, prefix)
			startB, _ := db.BAT(prefix + "_poststart")
			starts := append([]int64(nil), startB.Tail.Ints()...)
			c.corrupt(db, int(starts[len(starts)-1]), starts)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: %s panicked: %v", c.name, op, r)
					}
				}()
				if op == "upgrade" {
					err = upgradeRawSegments(db, prefix)
				} else {
					err = MergeSegments(db, prefix, 0, 2)
				}
			}()
			if err == nil {
				t.Errorf("%s: %s accepted the corrupt segment", c.name, op)
			}
		}
	}
}

// TestRefinalizeRejectsRawSegment: belief recomputation reads the block
// structure only; reaching it with an un-upgraded segment is an error
// that names the missing column, not silently stale beliefs.
func TestRefinalizeRejectsRawSegment(t *testing.T) {
	const prefix = "Lib_body"
	db, _ := segmentedTestDB(t, 3)
	writeLegacyRawSegs(t, db, prefix)
	if err := RefinalizeSegments(db, prefix); err == nil {
		t.Fatal("refinalize over a raw segment succeeded")
	} else if want := fmt.Sprintf("%s: segment 0 lost _blkstart", prefix); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the missing block column", err)
	}
}
