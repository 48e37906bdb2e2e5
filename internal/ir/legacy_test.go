package ir

import (
	"fmt"
	"math/rand"
	"runtime"
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

// FuzzLegacyRawSeg drives hostile raw-layout segment columns — the five
// columns a pre-block-codec checkpoint hands readLegacyRawSeg straight
// off disk — through UpgradeLayout. A bad column must come back as an
// error, never a panic, and the upgrade may allocate only in proportion
// to the columns it was given; an upgrade that succeeds leaves block
// segments the scan accepts.
func FuzzLegacyRawSeg(f *testing.F) {
	f.Add([]byte{0, 2, 5, 9}, uint8(0), uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(1), uint8(1))
	f.Add([]byte{0x7f, 0xff, 0x80, 1}, uint8(2), uint8(2))
	f.Add([]byte{0xf0, 0x0f, 0x3c}, uint8(0), uint8(3))
	f.Add([]byte{4}, uint8(1), uint8(4))
	f.Add([]byte{1, 0}, uint8(2), uint8(5))
	f.Add([]byte{2}, uint8(0), uint8(6))
	f.Add([]byte{0, 1, 1, 2, 3, 5, 8, 13, 21}, uint8(1), uint8(7))
	const prefix = "Lib_body"
	suffixes := []string{"_poststart", "_postdoc", "_posttf", "_postbel", "_maxbel"}
	f.Fuzz(func(t *testing.T, raw []byte, slot, mode uint8) {
		db, _ := segmentedTestDB(t, 9)
		writeLegacyRawSegs(t, db, prefix)
		s := int(slot) % SegmentCount(db, prefix)
		// Values small enough to land inside the columns, with 0x80 and
		// above escaping to the extremes.
		ints := make([]int64, len(raw))
		for i, b := range raw {
			switch {
			case b < 0x80:
				ints[i] = int64(b)
			case b < 0xc0:
				ints[i] = -int64(b & 0x3f)
			default:
				ints[i] = int64(b&0x3f) << 56
			}
		}
		oids := make([]bat.OID, len(ints))
		floats := make([]float64, len(ints))
		for i, v := range ints {
			oids[i], floats[i] = bat.OID(v), float64(v)/7
		}
		cols := map[string]*bat.BAT{
			"_poststart": adoptDense(bat.ColumnOfInts(ints)),
			"_postdoc":   adoptDense(bat.ColumnOfOIDs(oids)),
			"_posttf":    adoptDense(bat.ColumnOfInts(ints)),
			"_postbel":   adoptDense(bat.ColumnOfFloats(floats)),
			"_maxbel":    adoptDense(bat.ColumnOfFloats(floats)),
		}
		switch m := int(mode) % 8; {
		case m < 5: // one column replaced
			db.PutBAT(SegColumn(prefix, s, suffixes[m]), cols[suffixes[m]])
		case m == 5: // one column of the wrong kind
			name := suffixes[len(raw)%len(suffixes)]
			wrong := cols["_postbel"]
			if name == "_postbel" || name == "_maxbel" {
				wrong = cols["_posttf"]
			}
			db.PutBAT(SegColumn(prefix, s, name), wrong)
		case m == 6: // one column missing
			db.DropBAT(SegColumn(prefix, s, suffixes[len(raw)%len(suffixes)]))
		default: // every column replaced
			for _, suffix := range suffixes {
				db.PutBAT(SegColumn(prefix, s, suffix), cols[suffix])
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := UpgradeLayout(db, prefix)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+256*len(raw)); grew > limit {
			t.Fatalf("upgrade allocated %d bytes for %d input values (limit %d)", grew, len(raw), limit)
		}
		if err != nil {
			return
		}
		for i := 0; i < SegmentCount(db, prefix); i++ {
			if _, err := segBlockView(access(db), prefix, i); err != nil {
				t.Fatalf("upgrade succeeded but segment %d is not a valid block segment: %v", i, err)
			}
		}
	})
}
