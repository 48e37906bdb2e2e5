package ir

import (
	"math"
	"testing"
	"testing/quick"

	"mirror/internal/moa"
)

func TestStemVectors(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "at", "be"} {
		if Stem(w) != w {
			t.Errorf("Stem(%q) changed a short word", w)
		}
	}
}

func TestTokenizeAndAnalyze(t *testing.T) {
	toks := Tokenize("The Quick-Brown fox, jumps; gabor_21 RGB42!")
	want := []string{"the", "quick", "brown", "fox", "jumps", "gabor_21", "rgb42"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token[%d] = %q, want %q", i, toks[i], want[i])
		}
	}
	an := Analyze("The running dogs are jumping near gabor_21")
	// "the", "are" are stop words; running→run, dogs→dog, jumping→jump;
	// cluster terms pass through unstemmed
	wantA := []string{"run", "dog", "jump", "near", "gabor_21"}
	if len(an) != len(wantA) {
		t.Fatalf("analyze = %v", an)
	}
	for i := range wantA {
		if an[i] != wantA[i] {
			t.Fatalf("analyze[%d] = %q, want %q", i, an[i], wantA[i])
		}
	}
}

func TestBeliefProperties(t *testing.T) {
	// belief grows with tf, shrinks with df, bounded in [default, 1)
	b1 := Belief(1, 100, 100, 10, 1000)
	b2 := Belief(5, 100, 100, 10, 1000)
	if !(b2 > b1) {
		t.Fatalf("belief should grow with tf: %v vs %v", b1, b2)
	}
	bCommon := Belief(3, 100, 100, 900, 1000)
	bRare := Belief(3, 100, 100, 3, 1000)
	if !(bRare > bCommon) {
		t.Fatalf("belief should grow with rarity: %v vs %v", bRare, bCommon)
	}
	if Belief(0, 100, 100, 10, 1000) != DefaultBelief {
		t.Fatal("zero tf must give default belief")
	}
	f := func(tf, dl uint8, df, n uint16) bool {
		nn := int(n%5000) + 1
		dff := int(df)%nn + 1
		b := Belief(int(tf), int(dl), 50, dff, nn)
		return b >= DefaultBelief && b < 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mkImgLib builds the paper's Section 3 TraditionalImgLib.
func mkImgLib(t *testing.T) *moa.Database {
	t.Helper()
	db := moa.NewDatabase()
	err := db.DefineFromSource(`
		define TraditionalImgLib as SET<TUPLE<
			Atomic<URL>: source,
			CONTREP<Text>: annotation
		>>;`)
	if err != nil {
		t.Fatal(err)
	}
	docs := []struct{ url, text string }{
		{"http://img/0", "a red sunset over the ocean with waves"},
		{"http://img/1", "mountain landscape with snow and pine trees"},
		{"http://img/2", "red roses in a garden, red flowers everywhere"},
		{"http://img/3", "portrait of a cat sleeping on a sofa"},
		{"http://img/4", "ocean waves crashing on the beach at sunset"},
		{"http://img/5", "city skyline at night with bright lights"},
	}
	for _, d := range docs {
		if _, err := db.Insert("TraditionalImgLib", map[string]any{
			"source": d.url, "annotation": d.text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Finalize("TraditionalImgLib"); err != nil {
		t.Fatal(err)
	}
	return db
}

// paperQuery is the exact query expression from Section 3 of the paper.
const paperQuery = `
	map[sum(THIS)](
		map[getBL(THIS.annotation, query, stats)]( TraditionalImgLib ));`

func TestPaperSection3Query(t *testing.T) {
	db := mkImgLib(t)
	eng := moa.NewEngine(db)
	params := QueryParams(Analyze("red sunset ocean"))
	res, err := eng.Query(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	res.SortByScoreDesc()
	// doc 0 ("red sunset ... ocean") must rank first; doc 4 mentions two of
	// the three terms; docs 1/3/5 mention none and share the default score.
	if res.Rows[0].OID != 0 {
		t.Fatalf("top doc = %v (%+v)", res.Rows[0].OID, res.Rows)
	}
	if res.Rows[1].OID != 4 && res.Rows[1].OID != 2 {
		t.Fatalf("second doc = %v", res.Rows[1].OID)
	}
	last := res.Rows[5].Value.(float64)
	if math.Abs(last-3*DefaultBelief) > 1e-9 {
		t.Fatalf("non-matching score = %v, want %v", last, 3*DefaultBelief)
	}
}

func TestFusedMatchesUnfusedAndInterp(t *testing.T) {
	db := mkImgLib(t)
	params := QueryParams(Analyze("red sunset ocean waves"))

	fused := moa.NewEngine(db)
	unfused := &moa.Engine{DB: db, Opts: moa.Options{FuseMaps: true, FuseSelects: true, CSE: true}} // no aggregate fusion

	r1, err := fused.Query(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := unfused.Query(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	ip := moa.NewInterp(db, params)
	r3, err := ip.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) || len(r1.Rows) != len(r3.Rows) {
		t.Fatalf("row counts: fused %d, unfused %d, interp %d", len(r1.Rows), len(r2.Rows), len(r3.Rows))
	}
	for _, row := range r1.Rows {
		v1 := row.Value.(float64)
		row2, ok := r2.Find(row.OID)
		if !ok {
			t.Fatalf("doc %d missing from unfused result", row.OID)
		}
		row3, ok := r3.Find(row.OID)
		if !ok {
			t.Fatalf("doc %d missing from interp result", row.OID)
		}
		if math.Abs(v1-row2.Value.(float64)) > 1e-9 {
			t.Fatalf("doc %d: fused %v vs unfused %v", row.OID, v1, row2.Value)
		}
		if math.Abs(v1-row3.Value.(float64)) > 1e-9 {
			t.Fatalf("doc %d: fused %v vs interp %v", row.OID, v1, row3.Value)
		}
	}
}

func TestFusionRewriteFires(t *testing.T) {
	db := mkImgLib(t)
	eng := moa.NewEngine(db)
	params := QueryParams([]string{"red"})
	c, err := eng.Compile(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	milSrc := c.MIL()
	if !contains(milSrc, "getbl(") {
		t.Fatalf("fused plan should call getbl:\n%s", milSrc)
	}
	if contains(milSrc, "getbl_pairs(") {
		t.Fatalf("fused plan should not materialise belief pairs:\n%s", milSrc)
	}
	unfused := &moa.Engine{DB: db, Opts: moa.Options{FuseMaps: true, CSE: true}}
	c2, err := unfused.Compile(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(c2.MIL(), "getbl_pairs(") {
		t.Fatalf("unfused plan should materialise belief pairs:\n%s", c2.MIL())
	}
}

func TestIRIntegrationWithRelationalSelect(t *testing.T) {
	// "these query expressions can be combined with 'normal' relational
	// operators": rank only the images whose URL matches a selection.
	db := mkImgLib(t)
	eng := moa.NewEngine(db)
	params := QueryParams(Analyze("red"))
	res, err := eng.Query(`
		map[sum(THIS)](
			map[getBL(THIS.annotation, query, stats)](
				select[THIS.source != "http://img/0"](TraditionalImgLib)));`, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if _, found := res.Find(0); found {
		t.Fatal("doc 0 should have been selected away")
	}
	res.SortByScoreDesc()
	if res.Rows[0].OID != 2 { // doc 2 has "red" twice
		t.Fatalf("top = %v", res.Rows[0].OID)
	}
}

func TestStatsAndMaterialize(t *testing.T) {
	db := mkImgLib(t)
	stats, err := ReadStats(db, "TraditionalImgLib_annotation")
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 6 || stats.AvgDocLen <= 0 || stats.Terms == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	c := &Contrep{}
	v, err := c.Materialize(db, "TraditionalImgLib_annotation", 2)
	if err != nil {
		t.Fatal(err)
	}
	cv := v.(*ContrepValue)
	if _, ok := cv.Beliefs["red"]; !ok {
		t.Fatalf("materialized beliefs = %v", cv.Beliefs)
	}
	for term, b := range cv.Beliefs {
		if b <= DefaultBelief || b >= 1 {
			t.Fatalf("belief(%s) = %v out of range", term, b)
		}
	}
}

func TestOOVQueryTerms(t *testing.T) {
	db := mkImgLib(t)
	eng := moa.NewEngine(db)
	// all terms out of vocabulary → every doc scores 0 (no dict matches)
	res, err := eng.Query(paperQuery, QueryParams([]string{"zzzzz", "qqqqq"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Value.(float64) != 0 {
			t.Fatalf("OOV query score = %v", row.Value)
		}
	}
}

func TestContrepInsertValidation(t *testing.T) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(`define L as SET<TUPLE<CONTREP<Text>: body>>;`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("L", map[string]any{"body": 42}); err == nil {
		t.Fatal("non-text CONTREP value should fail")
	}
	if _, err := db.Insert("L", map[string]any{"body": []any{"ok", 3}}); err == nil {
		t.Fatal("mixed list should fail")
	}
	if _, err := db.Insert("L", map[string]any{"body": []string{"pre", "analyzed"}}); err != nil {
		t.Fatal(err)
	}
}

func TestContrepParamValidation(t *testing.T) {
	if (&Contrep{}).CheckParams(nil) == nil {
		t.Fatal("CONTREP without params should fail")
	}
	if (&Contrep{}).CheckParams([]moa.Type{moa.IntType}) == nil {
		t.Fatal("CONTREP<int> should fail")
	}
	if err := (&Contrep{}).CheckParams([]moa.Type{moa.TextType}); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
