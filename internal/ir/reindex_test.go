package ir

import (
	"math"
	"path/filepath"
	"testing"

	"mirror/internal/moa"
	"mirror/internal/storage"
)

// TestIncrementalInsertAndRefinalize checks the maintenance story: adding
// documents after a Finalize and re-finalizing updates statistics and
// beliefs consistently.
func TestIncrementalInsertAndRefinalize(t *testing.T) {
	db := mkImgLib(t)
	stats0, err := ReadStats(db, "TraditionalImgLib_annotation")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("TraditionalImgLib", map[string]any{
		"source": "http://img/6", "annotation": "red squirrels in the red autumn forest",
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Finalize("TraditionalImgLib"); err != nil {
		t.Fatal(err)
	}
	stats1, err := ReadStats(db, "TraditionalImgLib_annotation")
	if err != nil {
		t.Fatal(err)
	}
	if stats1.N != stats0.N+1 {
		t.Fatalf("N = %d, want %d", stats1.N, stats0.N+1)
	}
	eng := moa.NewEngine(db)
	res, err := eng.Query(paperQuery, QueryParams(Analyze("red")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	res.SortByScoreDesc()
	// both "red"-heavy docs (2 and the new 6) must outrank the rest
	top2 := map[uint64]bool{uint64(res.Rows[0].OID): true, uint64(res.Rows[1].OID): true}
	if !top2[2] || !top2[6] {
		t.Fatalf("top2 = %v, want docs 2 and 6", top2)
	}
}

// TestContrepSurvivesStorage round-trips a CONTREP collection through the
// storage layer and checks queries give identical scores.
func TestContrepSurvivesStorage(t *testing.T) {
	db := mkImgLib(t)
	eng := moa.NewEngine(db)
	params := QueryParams(Analyze("red sunset"))
	before, err := eng.Query(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "irdb")
	p, err := storage.Create(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(db.Snapshot(), map[string]string{"schema": db.SchemaSource()}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	bats, extra, err := storage.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2 := moa.NewDatabase()
	if err := db2.DefineFromSource(extra["schema"]); err != nil {
		t.Fatal(err)
	}
	for name, b := range bats {
		db2.PutBAT(name, b)
	}
	db2.SyncAfterLoad()

	eng2 := moa.NewEngine(db2)
	after, err := eng2.Query(paperQuery, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("rows %d vs %d", len(before.Rows), len(after.Rows))
	}
	for _, row := range before.Rows {
		other, ok := after.Find(row.OID)
		if !ok {
			t.Fatalf("doc %d missing after reload", row.OID)
		}
		if math.Abs(row.Value.(float64)-other.Value.(float64)) > 1e-12 {
			t.Fatalf("doc %d: %v vs %v", row.OID, row.Value, other.Value)
		}
	}
	// and the reloaded db can still take inserts (counters synced)
	if _, err := db2.Insert("TraditionalImgLib", map[string]any{
		"source": "http://img/new", "annotation": "fresh red flowers",
	}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Finalize("TraditionalImgLib"); err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Query(`count(TraditionalImgLib);`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar.(int64) != 7 {
		t.Fatalf("count after reload+insert = %v", res.Scalar)
	}
}

// TestEmptyCollectionQueries checks CONTREP behaviour before any insert.
func TestEmptyCollectionQueries(t *testing.T) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(
		`define E as SET<TUPLE<Atomic<URL>: u, CONTREP<Text>: body>>;`); err != nil {
		t.Fatal(err)
	}
	if err := db.Finalize("E"); err != nil {
		t.Fatal(err)
	}
	eng := moa.NewEngine(db)
	res, err := eng.Query(`
		map[sum(THIS)](map[getBL(THIS.body, query, stats)](E));`,
		QueryParams([]string{"anything"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty collection returned %d rows", len(res.Rows))
	}
	stats, err := ReadStats(db, "E_body")
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 {
		t.Fatalf("stats.N = %d", stats.N)
	}
}

// TestSingleDocumentCollection exercises the N=1 degenerate statistics.
func TestSingleDocumentCollection(t *testing.T) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(
		`define S as SET<TUPLE<Atomic<URL>: u, CONTREP<Text>: body>>;`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("S", map[string]any{"u": "x", "body": "lonely document text"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Finalize("S"); err != nil {
		t.Fatal(err)
	}
	eng := moa.NewEngine(db)
	res, err := eng.Query(`
		map[sum(THIS)](map[getBL(THIS.body, query, stats)](S));`,
		QueryParams(Analyze("lonely")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	score := res.Rows[0].Value.(float64)
	// with N=1 and df=1 the idf term is log(1.5)/log(2) > 0, so the score
	// must exceed the default belief
	if score <= DefaultBelief {
		t.Fatalf("score %v <= default %v", score, DefaultBelief)
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		t.Fatalf("degenerate score %v", score)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	text := "The quick brown foxes were jumping over the lazy dogs near the riverbank at sunset"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(text)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "formalize", "adjustment", "electricity", "running"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkBelief(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Belief(3, 80, 75.5, 120, 10000)
	}
}
