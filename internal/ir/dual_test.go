package ir

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mirror/internal/moa"
)

// dualRank is Section 5.2's combination over a set with two CONTREPs:
// text evidence from the annotation, content evidence from the cluster
// words, averaged by #sum.
const dualRank = `
	map[(sum(getBL(THIS.annotation, query, stats)) + sum(getBL(THIS.image, concepts, stats))) / 2](
		Lib);`

const (
	annRank = `map[sum(getBL(THIS.annotation, query, stats))](Lib);`
	imgRank = `map[sum(getBL(THIS.image, concepts, stats))](Lib);`
)

func dualDB(t *testing.T) *moa.Database {
	t.Helper()
	db := moa.NewDatabase()
	if err := db.DefineFromSource(`define Lib as SET<TUPLE<
		Atomic<URL>: source, CONTREP<Text>: annotation, CONTREP<Image>: image>>;`); err != nil {
		t.Fatal(err)
	}
	return db
}

// dualInsert adds document i: a random annotation (sometimes empty) and a
// random set of cluster words (sometimes none).
func dualInsert(t *testing.T, db *moa.Database, rng *rand.Rand, i int) {
	t.Helper()
	ann := ""
	if rng.Intn(6) != 0 {
		ann = segTestDoc(rng, i)
	}
	var words []string
	for j := rng.Intn(4); j > 0; j-- {
		words = append(words, fmt.Sprintf("c%d", rng.Intn(9)))
	}
	if _, err := db.Insert("Lib", map[string]any{"source": fmt.Sprintf("u%d", i), "annotation": ann, "image": words}); err != nil {
		t.Fatal(err)
	}
}

func dualParams(terms, concepts []string) map[string]moa.Param {
	p := QueryParams(terms)
	p["concepts"] = TermsParam(concepts)
	return p
}

// weightedDualParams binds the concepts as a weighted set — relevance
// feedback's form of the dual query — with weights spread over 1e-2…1e2.
func weightedDualParams(terms, concepts []string) map[string]moa.Param {
	p := QueryParams(terms)
	ws := make([]float64, len(concepts))
	for i := range ws {
		ws[i] = math.Pow(10, float64(i%5)-2) * (1 + 0.25*float64(i))
	}
	p["concepts"] = WeightedTermsParam(concepts, ws)
	return p
}

// dualBindings are the two forms of the concepts parameter.
var dualBindings = []struct {
	name     string
	params   func(terms, concepts []string) map[string]moa.Param
	weighted bool
}{
	{"plain", dualParams, false},
	{"weighted", weightedDualParams, true},
}

// dualQueries are (text, concepts) probes: shared and rare terms, an OOV
// text term, an OOV and a duplicate concept, and an empty expansion.
var dualQueries = []struct {
	text     string
	concepts []string
}{
	{"harbor gull", []string{"c1", "c4", "c7"}},
	{"tide pier rope salt", []string{"c0"}},
	{"kelp zeppelin", []string{"c2", "c9", "c2"}},
	{"mist buoy anchor foam driftwood", nil},
	{"gull", []string{"c3", "c5", "c6", "c8", "c0"}},
}

func queryRows(t *testing.T, eng *moa.Engine, src string, params map[string]moa.Param) map[uint64]float64 {
	t.Helper()
	res, err := eng.Query(src, params)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]float64, len(res.Rows))
	for _, r := range res.Rows {
		out[uint64(r.OID)] = r.Value.(float64)
	}
	return out
}

// TestDualInterpMatchesFlattened is the Interp ≡ flattened check for a
// map body that adds two getBL sums: every document's flattened score is
// its annotation score plus its content score, halved — bit for bit —
// and agrees with the tuple-at-a-time interpreter and the unfused plan.
// Before Fill emitted domain order, the [+] multiplex paired one
// document's text score with another's content score.
func TestDualInterpMatchesFlattened(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := dualDB(t)
	for i := 0; i < 80; i++ {
		dualInsert(t, db, rng, i)
	}
	if err := db.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	fused := moa.NewEngine(db)
	unfused := &moa.Engine{DB: db, Opts: moa.Options{FuseMaps: true, CSE: true}}
	for _, b := range dualBindings {
		for _, q := range dualQueries {
			params := b.params(Analyze(q.text), q.concepts)
			flat := queryRows(t, fused, dualRank, params)
			ann := queryRows(t, fused, annRank, params)
			img := queryRows(t, fused, imgRank, params)
			plain := flat
			if b.weighted {
				// a weighted getBL is defined under sum only
				if _, err := unfused.Query(dualRank, params); err == nil {
					t.Fatalf("%s %q: the unfused plan accepted a weighted getBL", b.name, q.text)
				}
			} else {
				plain = queryRows(t, unfused, dualRank, params)
			}
			ires, err := moa.NewInterp(db, params).Query(dualRank)
			if err != nil {
				t.Fatal(err)
			}
			if len(flat) != 80 || len(ires.Rows) != 80 || len(plain) != 80 {
				t.Fatalf("%s %q: rows flattened %d, interp %d, unfused %d, want 80", b.name, q.text, len(flat), len(ires.Rows), len(plain))
			}
			for _, r := range ires.Rows {
				d := uint64(r.OID)
				if want := (ann[d] + img[d]) / 2; flat[d] != want {
					t.Fatalf("%s %q doc %d: flattened %v, (annotation %v + content %v) / 2 = %v", b.name, q.text, d, flat[d], ann[d], img[d], want)
				}
				if math.Abs(flat[d]-r.Value.(float64)) > 1e-9 || math.Abs(flat[d]-plain[d]) > 1e-9 {
					t.Fatalf("%s %q doc %d: flattened %v, interp %v, unfused %v", b.name, q.text, d, flat[d], r.Value, plain[d])
				}
			}
		}
	}
}

// TestWeightedQueryDropsOOVWithWeight: an out-of-dictionary term of a
// weighted query drops together with its weight — from the matched
// documents' sums and from the default fill alike — on the exhaustive
// and the pruned plan.
func TestWeightedQueryDropsOOVWithWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := dualDB(t)
	for i := 0; i < 60; i++ {
		dualInsert(t, db, rng, i)
	}
	if err := db.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	bind := func(concepts []string, ws []float64) map[string]moa.Param {
		p := QueryParams(nil)
		p["concepts"] = WeightedTermsParam(concepts, ws)
		return p
	}
	with := bind([]string{"c1", "zeppelin", "c4"}, []float64{0.5, 7, 2})
	without := bind([]string{"c1", "c4"}, []float64{0.5, 2})
	for _, k := range []int{0, 1, 10} {
		eng := moa.NewEngine(db)
		eng.Opts.TopK = k
		a, err := eng.Query(imgRank, with)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.Query(imgRank, without)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) || len(a.Rows) == 0 {
			t.Fatalf("k=%d: %d vs %d rows", k, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			if a.Rows[i] != b.Rows[i] {
				t.Fatalf("k=%d row %d: with the OOV term %v, without %v", k, i, a.Rows[i], b.Rows[i])
			}
		}
	}
}

// rankedRows orders a full result score-descending / OID-ascending and
// cuts it at k.
func rankedRows(rows []moa.Row, k int) []moa.Row {
	rows = append([]moa.Row(nil), rows...)
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].Value.(float64), rows[j].Value.(float64)
		if si != sj {
			return si > sj
		}
		return rows[i].OID < rows[j].OID
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TestDualPrunedMatchesExhaustive: the top-k pushdown fuses the dual
// body into one two-source prunedtopk, and its ranking equals the
// exhaustive plan's BUN for BUN — on a store whose annotation CONTREP was
// compacted while its image CONTREP kept its delta segments, so the two
// segment lists disagree.
func TestDualPrunedMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := dualDB(t)
	n := 0
	for ; n < 90; n++ {
		dualInsert(t, db, rng, n)
	}
	if err := db.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{40, 25, 60} {
		for end := n + step; n < end; n++ {
			dualInsert(t, db, rng, n)
		}
		for _, prefix := range []string{"Lib_annotation", "Lib_image"} {
			if _, err := AppendSegment(db, prefix); err != nil {
				t.Fatal(err)
			}
			if err := RefinalizeSegments(db, prefix); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := MergeSegments(db, "Lib_annotation", 1, 3); err != nil {
		t.Fatal(err)
	}
	if a, i := SegmentCount(db, "Lib_annotation"), SegmentCount(db, "Lib_image"); a != 3 || i != 4 {
		t.Fatalf("segments: annotation %d, image %d; want a misaligned 3 vs 4", a, i)
	}
	exhaustive := moa.NewEngine(db)
	for _, q := range dualQueries {
		for _, b := range dualBindings {
			assertDualPruned(t, db, n, q.text, b.params(Analyze(q.text), q.concepts), exhaustive)
		}
	}
}

// assertDualPruned checks the pruned dual plan against the exhaustive one
// at k ∈ {1, 10, 100, n+3}.
func assertDualPruned(t *testing.T, db *moa.Database, n int, text string, params map[string]moa.Param, exhaustive *moa.Engine) {
	t.Helper()
	full, err := exhaustive.Query(dualRank, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, 100, n + 3} {
		want := rankedRows(full.Rows, k)
		eng := moa.NewEngine(db)
		eng.Opts.TopK = k
		c, err := eng.Compile(dualRank, params)
		if err != nil {
			t.Fatal(err)
		}
		if mil := c.MIL(); strings.Count(mil, "prunedtopk(") != 1 || strings.Contains(mil, "getbl(") {
			t.Fatalf("%q k=%d: dual body not fused into one prunedtopk:\n%s", text, k, mil)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ranked || len(res.Rows) != len(want) {
			t.Fatalf("%q k=%d: ranked %v, %d rows, want %d", text, k, res.Ranked, len(res.Rows), len(want))
		}
		for i := range want {
			if res.Rows[i].OID != want[i].OID || res.Rows[i].Value != want[i].Value {
				t.Fatalf("%q k=%d rank %d: pruned (%d, %v), exhaustive (%d, %v)",
					text, k, i, res.Rows[i].OID, res.Rows[i].Value, want[i].OID, want[i].Value)
			}
		}
	}
}

// TestDualPushdownShapes pins which bodies fuse: a left-deep sum of
// getBLScore calls, optionally over a positive literal, does; a right-deep
// sum (another fold order), a non-positive divisor and a non-literal
// term do not, and run exhaustively.
func TestDualPushdownShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := dualDB(t)
	for i := 0; i < 30; i++ {
		dualInsert(t, db, rng, i)
	}
	if err := db.Finalize("Lib"); err != nil {
		t.Fatal(err)
	}
	ann := `sum(getBL(THIS.annotation, query, stats))`
	img := `sum(getBL(THIS.image, concepts, stats))`
	for body, fuses := range map[string]bool{
		"(" + ann + " + " + img + ") / 2":          true,
		ann + " + " + img:                          true,
		ann + " / 4":                               true,
		"(" + img + " + " + ann + ") + " + img:     true,
		img + " + (" + ann + " + " + img + ")":     false,
		"(" + ann + " + " + img + ") / 0":          false,
		"(" + ann + " + " + img + ") / (1 - 2)":    false,
		ann + " + 0.5":                             false,
		"(" + ann + " + " + img + ") * 2":          false,
		"(" + ann + " + " + img + ") / count(Lib)": false,
	} {
		eng := moa.NewEngine(db)
		eng.Opts.TopK = 5
		c, err := eng.Compile("map["+body+"](Lib);", dualParams([]string{"harbor"}, []string{"c1"}))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := strings.Contains(c.MIL(), "prunedtopk("); got != fuses {
			t.Errorf("%s: fused %v, want %v", body, got, fuses)
		}
	}
}
