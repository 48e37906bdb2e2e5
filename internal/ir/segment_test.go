package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mirror/internal/moa"
)

// segTestWords is a vocabulary with repeated draws to force shared terms,
// manufactured score ties, and a tail of rare terms.
var segTestWords = []string{
	"harbor", "harbor", "harbor", "gull", "gull", "tide", "tide", "pier",
	"rope", "salt", "mist", "buoy", "anchor", "kelp", "foam", "driftwood",
}

func segTestDoc(rng *rand.Rand, i int) string {
	n := 1 + rng.Intn(7)
	var sb strings.Builder
	for j := 0; j < n; j++ {
		if j > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(segTestWords[rng.Intn(len(segTestWords))])
	}
	if rng.Intn(8) == 0 {
		fmt.Fprintf(&sb, " unique%d", i) // dictionary growth in late deltas
	}
	return sb.String()
}

func segTestDB(t *testing.T) *moa.Database {
	t.Helper()
	db := moa.NewDatabase()
	src := `define Lib as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: body>>;`
	if err := db.DefineFromSource(src); err != nil {
		t.Fatal(err)
	}
	return db
}

func segInsert(t *testing.T, db *moa.Database, i int, text string) {
	t.Helper()
	if _, err := db.Insert("Lib", map[string]any{"source": fmt.Sprintf("u%d", i), "body": text}); err != nil {
		t.Fatal(err)
	}
}

// assertDerivedEqual compares the statistics-dependent derived state and
// the logical postings content of two databases' CONTREPs.
func assertDerivedEqual(t *testing.T, want, got *moa.Database, prefix, label string) {
	t.Helper()
	for _, name := range []string{prefix + "_df", prefix + "_stats"} {
		wb, ok1 := want.BAT(name)
		gb, ok2 := got.BAT(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s: %s missing (%v/%v)", label, name, ok1, ok2)
		}
		if wb.Len() != gb.Len() {
			t.Fatalf("%s: %s length %d vs %d", label, name, wb.Len(), gb.Len())
		}
		for i := 0; i < wb.Len(); i++ {
			if wb.Tail.Get(i) != gb.Tail.Get(i) {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, name, i, wb.Tail.Get(i), gb.Tail.Get(i))
			}
		}
	}
	// Logical postings: term string → multiset of (doc, tf, bel) across
	// all segments must match, regardless of segmentation.
	gather := func(db *moa.Database) map[string][]string {
		dict, _ := db.BAT(prefix + "_dict")
		out := map[string][]string{}
		for s := 0; s < maxSeg(db, prefix); s++ {
			data, err := readSegData(access(db), prefix, s)
			if err != nil {
				t.Fatalf("%s: segment %d: %v", label, s, err)
			}
			for tIdx := 0; tIdx+1 < len(data.starts); tIdx++ {
				w := dict.Tail.StrAt(tIdx)
				for i := data.starts[tIdx]; i < data.starts[tIdx+1]; i++ {
					out[w] = append(out[w], fmt.Sprintf("%d:%v", data.docs[i], data.bels[i]))
				}
			}
		}
		return out
	}
	wp, gp := gather(want), gather(got)
	if len(wp) != len(gp) {
		t.Fatalf("%s: %d vs %d posted terms", label, len(wp), len(gp))
	}
	for w, wl := range wp {
		gl := gp[w]
		if strings.Join(wl, ",") != strings.Join(gl, ",") {
			t.Fatalf("%s: postings of %q differ:\n one-shot %v\n incremental %v", label, w, wl, gl)
		}
	}
}

func maxSeg(db *moa.Database, prefix string) int {
	n := SegmentCount(db, prefix)
	if n == 0 {
		n = 1
	}
	return n
}

// TestSegmentedIncrementalEqualsOneShot is the ir-layer differential
// guarantee: batch Finalize + any interleaving of delta AppendSegment/
// RefinalizeSegments and MergeSegments produces derived state logically
// identical — belief-for-belief — to one Finalize over the whole corpus.
func TestSegmentedIncrementalEqualsOneShot(t *testing.T) {
	const prefix = "Lib_body"
	for round := 0; round < 25; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		nDocs := 3 + rng.Intn(40)
		texts := make([]string, nDocs)
		for i := range texts {
			texts[i] = segTestDoc(rng, i)
		}

		// One-shot reference.
		ref := segTestDB(t)
		for i, txt := range texts {
			segInsert(t, ref, i, txt)
		}
		if err := ref.Finalize("Lib"); err != nil {
			t.Fatal(err)
		}

		// Incremental: batch prefix, then deltas at random cut points with
		// interleaved merges.
		inc := segTestDB(t)
		batch := 1 + rng.Intn(nDocs)
		for i := 0; i < batch; i++ {
			segInsert(t, inc, i, texts[i])
		}
		if err := inc.Finalize("Lib"); err != nil {
			t.Fatal(err)
		}
		at := batch
		for at < nDocs {
			step := 1 + rng.Intn(nDocs-at)
			for i := at; i < at+step; i++ {
				segInsert(t, inc, i, texts[i])
			}
			at += step
			if _, err := AppendSegment(inc, prefix); err != nil {
				t.Fatal(err)
			}
			if err := RefinalizeSegments(inc, prefix); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				sizes := make([]int, 0)
				for _, st := range SegmentStats(inc, prefix) {
					sizes = append(sizes, st.Postings)
				}
				if lo, hi, ok := PickMerge(sizes, 8); ok {
					if err := MergeSegments(inc, prefix, lo, hi); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		label := fmt.Sprintf("round %d (batch %d of %d, %d segments)", round, batch, nDocs, SegmentCount(inc, prefix))
		assertDerivedEqual(t, ref, inc, prefix, label)

		// And the ranked queries agree BUN-for-BUN, pruned vs pruned.
		for q := 0; q < 5; q++ {
			terms := Analyze(segTestDoc(rng, 999))
			if len(terms) == 0 {
				continue
			}
			k := 1 + rng.Intn(nDocs+2)
			refEng := moa.NewEngine(ref)
			refEng.Opts.TopK = k
			incEng := moa.NewEngine(inc)
			incEng.Opts.TopK = k
			src := `map[sum(THIS)](map[getBL(THIS.body, query, stats)](Lib));`
			rres, err := refEng.Query(src, QueryParams(terms))
			if err != nil {
				t.Fatal(err)
			}
			ires, err := incEng.Query(src, QueryParams(terms))
			if err != nil {
				t.Fatal(err)
			}
			if !rres.Ranked || !ires.Ranked {
				t.Fatalf("%s: expected pruned plans (ranked %v/%v)", label, rres.Ranked, ires.Ranked)
			}
			if len(rres.Rows) != len(ires.Rows) {
				t.Fatalf("%s: query %v k=%d: %d vs %d rows", label, terms, k, len(rres.Rows), len(ires.Rows))
			}
			for i := range rres.Rows {
				if rres.Rows[i].OID != ires.Rows[i].OID || rres.Rows[i].Value != ires.Rows[i].Value {
					t.Fatalf("%s: query %v k=%d row %d: (%d,%v) vs (%d,%v)", label, terms, k, i,
						rres.Rows[i].OID, rres.Rows[i].Value, ires.Rows[i].OID, ires.Rows[i].Value)
				}
			}
		}
	}
}

// TestMergePolicyBoundedFanIn pins PickMerge's contract: it never exceeds
// the fan-in bound, never proposes fewer than two inputs, and drives any
// run of equal-sized deltas to a logarithmic segment count.
func TestMergePolicyBoundedFanIn(t *testing.T) {
	if _, _, ok := PickMerge([]int{10}, 8); ok {
		t.Fatal("single segment merged")
	}
	if _, _, ok := PickMerge([]int{1000, 1}, 8); ok {
		t.Fatal("tiny delta merged into a 1000x base")
	}
	lo, hi, ok := PickMerge([]int{1000, 3, 2, 2}, 8)
	if !ok || lo != 1 || hi != 4 {
		t.Fatalf("tail run merge = [%d,%d) ok=%v, want [1,4) true", lo, hi, ok)
	}
	if lo, hi, ok = PickMerge([]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 4); !ok || hi-lo > 4 {
		t.Fatalf("fan-in bound violated: [%d,%d)", lo, hi)
	}
	// Simulated ingest: segment count stays logarithmic-ish.
	sizes := []int{}
	for i := 0; i < 500; i++ {
		sizes = append(sizes, 1)
		for {
			lo, hi, ok := PickMerge(sizes, 8)
			if !ok {
				break
			}
			total := 0
			for _, s := range sizes[lo:hi] {
				total += s
			}
			sizes = append(sizes[:lo], append([]int{total}, sizes[hi:]...)...)
		}
	}
	if len(sizes) > 12 {
		t.Fatalf("500 unit deltas left %d segments (%v); compaction is not keeping up", len(sizes), sizes)
	}
}

// TestEnsureSegmentedUpgradesOldLayout simulates a store checkpointed
// before segmentation existed: canonical raw derived columns only, no
// directory, no _posttf, and the pair-order _bel/_termrev copy. The
// open-time UpgradeLayout must produce a 1-segment block layout whose
// derived state matches a fresh Finalize, and drop the pair-order copy.
func TestEnsureSegmentedUpgradesOldLayout(t *testing.T) {
	const prefix = "Lib_body"
	db := segTestDB(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		segInsert(t, db, i, segTestDoc(rng, i))
	}
	if err := db.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	// Present what an old checkpoint would: raw columns, none of the
	// segmented extras.
	writeLegacyRawSegs(t, db, prefix)
	db.DropBAT(prefix + "_segdir")
	db.DropBAT(prefix + "_posttf")
	if SegmentCount(db, prefix) != 0 {
		t.Fatal("directory still present after strip")
	}
	term, _ := db.BAT(prefix + "_term")
	db.PutBAT(prefix+"_termrev", term.Reverse())
	db.PutBAT(prefix+"_bel", term)
	if err := UpgradeLayout(db, prefix); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"_bel", "_termrev"} {
		if _, ok := db.BAT(prefix + suffix); ok {
			t.Fatalf("upgrade left %s behind", prefix+suffix)
		}
	}
	if SegmentCount(db, prefix) != 1 {
		t.Fatalf("segments = %d, want 1", SegmentCount(db, prefix))
	}
	ref := segTestDB(t)
	rng = rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		segInsert(t, ref, i, segTestDoc(rng, i))
	}
	if err := ref.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	assertDerivedEqual(t, ref, db, prefix, "upgraded layout")
	if _, ok := db.BAT(prefix + "_blkdoc"); !ok {
		t.Fatal("upgrade did not derive the block postings structure")
	}
	if _, ok := db.BAT(prefix + "_postdoc"); ok {
		t.Fatal("upgrade left the raw postings column behind")
	}
}
