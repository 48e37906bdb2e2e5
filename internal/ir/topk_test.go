package ir

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mirror/internal/moa"
)

// rankQuery is the paper's Section 3 ranking expression over a CONTREP.
const rankQuery = `
	map[sum(THIS)](
		map[getBL(THIS.body, query, stats)]( Docs ));`

// mkTopKDB builds a synthetic CONTREP-indexed collection. Every dupEvery-th
// document repeats its predecessor verbatim, manufacturing exact score ties
// that exercise the OID tie order.
func mkTopKDB(t testing.TB, rng *rand.Rand, n, dupEvery int) *moa.Database {
	t.Helper()
	db := moa.NewDatabase()
	if err := db.DefineFromSource(`
		define Docs as SET<TUPLE<
			Atomic<URL>: source,
			CONTREP<Text>: body
		>>;`); err != nil {
		t.Fatal(err)
	}
	vocab := []string{"tiger", "lion", "river", "sunset", "market", "train", "harbor", "forest", "violin", "copper"}
	prev := ""
	for i := 0; i < n; i++ {
		var text string
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			text = prev
		} else {
			var words []string
			for w := 0; w < 3+rng.Intn(8); w++ {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
			text = strings.Join(words, " ")
		}
		prev = text
		if _, err := db.Insert("Docs", map[string]any{
			"source": fmt.Sprintf("doc://%d", i), "body": text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Finalize("Docs"); err != nil {
		t.Fatal(err)
	}
	return db
}

// exhaustiveRanking runs the query without top-k pushdown and ranks the
// full result (score descending, OID ascending), cut at k.
func exhaustiveRanking(t *testing.T, db *moa.Database, terms []string, k int) []moa.Row {
	t.Helper()
	eng := moa.NewEngine(db)
	res, err := eng.Query(rankQuery, QueryParams(terms))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked {
		t.Fatal("exhaustive query came back ranked")
	}
	rows := append([]moa.Row(nil), res.Rows...)
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

// TestPrunedTopKEndToEnd is the engine-level differential property test:
// with Options.TopK the plan optimizer serves the ranking query through
// the pruned physical operator, and the rows must be BUN-for-BUN identical
// to the exhaustively computed ranking — including tied scores resolved by
// OID and out-of-vocabulary query terms.
func TestPrunedTopKEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 17, 300} {
		db := mkTopKDB(t, rng, n, 4)
		queries := [][]string{
			{"tiger"},
			{"tiger", "river", "sunset"},
			{"violin", "violin", "copper"}, // duplicate term
			{"tiger", "zeppelin"},          // OOV term drops out
			{"quux", "zeppelin"},           // fully OOV → all-default scores
			{"harbor", "forest", "lion", "train", "market"},
		}
		for _, terms := range queries {
			for _, k := range []int{1, 5, n, n + 3} {
				want := exhaustiveRanking(t, db, terms, k)

				eng := moa.NewEngine(db)
				eng.Opts.TopK = k
				c, err := eng.Compile(rankQuery, QueryParams(terms))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(c.MIL(), "prunedtopk") {
					t.Fatalf("n=%d terms=%v k=%d: plan did not push top-k down:\n%s", n, terms, k, c.MIL())
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Ranked {
					t.Fatalf("pruned result not marked Ranked")
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("n=%d terms=%v k=%d: %d rows, want %d", n, terms, k, len(res.Rows), len(want))
				}
				for i := range want {
					if res.Rows[i].OID != want[i].OID || res.Rows[i].Value.(float64) != want[i].Value.(float64) {
						t.Fatalf("n=%d terms=%v k=%d rank %d: got (%d, %v), want (%d, %v)",
							n, terms, k, i, res.Rows[i].OID, res.Rows[i].Value, want[i].OID, want[i].Value)
					}
				}
			}
		}
	}
}

// TestPrunedTopKFallback pins the exact-fallback contract: plan shapes
// pruning cannot serve (a selection restricting the scan) run exhaustively
// and come back unranked, with correct results.
func TestPrunedTopKFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := mkTopKDB(t, rng, 60, 0)
	eng := moa.NewEngine(db)
	eng.Opts.TopK = 5
	// getBL (unfused shape that keeps per-term sets) under a sum is fused by
	// the optimizer; wrap the scored map in a select instead.
	src := `
		select[THIS > 1.0](
			map[sum(THIS)](
				map[getBL(THIS.body, query, stats)]( Docs )));`
	c, err := eng.Compile(src, QueryParams([]string{"tiger", "river"}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.MIL(), "prunedtopk") {
		t.Fatalf("select-restricted plan must not prune:\n%s", c.MIL())
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranked {
		t.Fatal("fallback result wrongly marked Ranked")
	}
	// Sanity: every returned score really exceeds the predicate bound.
	for _, r := range res.Rows {
		if r.Value.(float64) <= 1.0 {
			t.Fatalf("select bound violated: %v", r.Value)
		}
	}
}

// TestPrunedTopKAblation: with aggregate fusion disabled the pruned form
// cannot match (the body stays sum∘getBL) and the exact fallback must
// still produce the correct full result.
func TestPrunedTopKAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := mkTopKDB(t, rng, 40, 0)
	want := exhaustiveRanking(t, db, []string{"tiger", "lion"}, 7)

	eng := &moa.Engine{DB: db, Opts: moa.Options{TopK: 7}}
	c, err := eng.Compile(rankQuery, QueryParams([]string{"tiger", "lion"}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.MIL(), "prunedtopk") {
		t.Fatal("pruning requires the aggregate-fusion rewrite")
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]moa.Row(nil), res.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].Value.(float64), rows[j].Value.(float64)
		if si != sj {
			return si > sj
		}
		return rows[i].OID < rows[j].OID
	})
	rows = rows[:7]
	for i := range want {
		if rows[i].OID != want[i].OID {
			t.Fatalf("ablated fallback rank %d: %d vs %d", i, rows[i].OID, want[i].OID)
		}
	}
}

// TestPrunedTopKOldStoreFallback: a database restored from a checkpoint
// written before the term-ordered postings columns existed has no
// postings form: a query over it is a compile error, never a plan with
// dangling column references. The open-time UpgradeLayout derives its
// segments, after which it answers the pruned top-k exactly as the store
// it was copied from.
func TestPrunedTopKOldStoreFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := mkTopKDB(t, rng, 30, 0)
	// Simulate the old on-disk layout: copy every BAT except the derived
	// postings representation into a freshly defined database.
	db := moa.NewDatabase()
	if err := db.DefineFromSource(`
		define Docs as SET<TUPLE<
			Atomic<URL>: source,
			CONTREP<Text>: body
		>>;`); err != nil {
		t.Fatal(err)
	}
	for name, b := range src.Snapshot() {
		if strings.Contains(name, "_post") || strings.Contains(name, "_maxbel") ||
			strings.Contains(name, "_blk") || strings.HasSuffix(name, "_segdir") {
			continue
		}
		db.PutBAT(name, b)
	}
	db.SyncAfterLoad()

	eng := moa.NewEngine(db)
	eng.Opts.TopK = 5
	if c, err := eng.Compile(rankQuery, QueryParams([]string{"tiger"})); err == nil {
		t.Fatalf("compiled without postings columns:\n%s", c.MIL())
	}
	if err := UpgradeLayout(db, "Docs_body"); err != nil {
		t.Fatal(err)
	}
	for label, d := range map[string]*moa.Database{"upgraded": db, "original": src} {
		eng := moa.NewEngine(d)
		eng.Opts.TopK = 5
		res, err := eng.Query(rankQuery, QueryParams([]string{"tiger"}))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Ranked || len(res.Rows) != 5 {
			t.Fatalf("%s: ranked=%v, %d rows", label, res.Ranked, len(res.Rows))
		}
	}
	want, _ := moa.NewEngine(src).Query(rankQuery, QueryParams([]string{"tiger"}))
	got, _ := moa.NewEngine(db).Query(rankQuery, QueryParams([]string{"tiger"}))
	if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
		t.Fatalf("upgraded store ranks\n%v\nwant\n%v", got.Rows, want.Rows)
	}
}
