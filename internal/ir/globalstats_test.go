package ir

import (
	"testing"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// TestGlobalStatsShardBeliefsMatchWhole is the unit-level half of the
// sharded differential guarantee: two half-collections finalized with the
// global statistics override and a union dictionary write per-posting
// beliefs and collection statistics identical to one store indexing
// everything.
func TestGlobalStatsShardBeliefsMatchWhole(t *testing.T) {
	const schema = `define L as SET<TUPLE<CONTREP<Text>: body>>;`
	docs := [][]string{
		{"ocean", "wave", "wave", "blue"},
		{"forest", "green", "moss"},
		{"ocean", "storm"},
		{"desert", "dune", "dune", "dune", "sand"},
		{}, // empty document still counts toward N
		{"ocean", "blue", "green"},
	}

	mkDB := func(idx []int) *moa.Database {
		db := moa.NewDatabase()
		if err := db.DefineFromSource(schema); err != nil {
			t.Fatal(err)
		}
		for _, i := range idx {
			if _, err := db.Insert("L", map[string]any{"body": docs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}

	whole := mkDB([]int{0, 1, 2, 3, 4, 5})
	if err := whole.Finalize("L"); err != nil {
		t.Fatal(err)
	}

	gs := CollectionStats(docs)
	vocab := make([]string, 0, len(gs.DF))
	for tm := range gs.DF {
		vocab = append(vocab, tm)
	}
	shardIdx := [][]int{{0, 2, 4}, {1, 3, 5}}
	shards := make([]*moa.Database, 2)
	for s, idx := range shardIdx {
		db := mkDB(idx)
		SetGlobalStats(db, "L_body", gs)
		defer SetGlobalStats(db, "L_body", nil)
		if err := EnsureDictTerms(db, "L_body", vocab); err != nil {
			t.Fatal(err)
		}
		if err := db.Finalize("L"); err != nil {
			t.Fatal(err)
		}
		shards[s] = db
	}

	// Collection statistics agree with the whole store on every shard.
	wantStats, err := ReadStats(whole, "L_body")
	if err != nil {
		t.Fatal(err)
	}
	for s, db := range shards {
		got, err := ReadStats(db, "L_body")
		if err != nil {
			t.Fatal(err)
		}
		if *got != *wantStats {
			t.Fatalf("shard %d stats %+v, want %+v", s, *got, *wantStats)
		}
	}

	// Per-document beliefs, read off the segments: term→belief maps via
	// the dictionary so the comparison is OID-layout independent.
	beliefsOf := func(db *moa.Database, local bat.OID) map[string]float64 {
		dict, _ := db.BAT("L_body_dict")
		out := map[string]float64{}
		for s := 0; s < SegmentCount(db, "L_body"); s++ {
			data, err := readSegData(access(db), "L_body", s)
			if err != nil {
				t.Fatal(err)
			}
			for tIdx := 0; tIdx+1 < len(data.starts); tIdx++ {
				for i := data.starts[tIdx]; i < data.starts[tIdx+1]; i++ {
					if data.docs[i] == local {
						out[dict.Tail.StrAt(tIdx)] = data.bels[i]
					}
				}
			}
		}
		return out
	}
	for s, idx := range shardIdx {
		for local, g := range idx {
			want := beliefsOf(whole, bat.OID(g))
			got := beliefsOf(shards[s], bat.OID(local))
			if len(want) != len(got) {
				t.Fatalf("shard %d doc %d: %d terms vs %d", s, g, len(got), len(want))
			}
			for w, b := range want {
				if got[w] != b {
					t.Fatalf("shard %d doc %d term %q: belief %v, want %v", s, g, w, got[w], b)
				}
			}
		}
	}

	// Union dictionary: every shard knows the full vocabulary, and its
	// per-term df column carries the GLOBAL document frequency.
	for s, db := range shards {
		dict, _ := db.BAT("L_body_dict")
		if dict.Len() != len(gs.DF) {
			t.Fatalf("shard %d dictionary has %d terms, want %d", s, dict.Len(), len(gs.DF))
		}
		dfB, _ := db.BAT("L_body_df")
		for i := 0; i < dict.Len(); i++ {
			w := dict.Tail.StrAt(i)
			if int(dfB.Tail.IntAt(i)) != gs.DF[w] {
				t.Fatalf("shard %d df[%q] = %d, want global %d", s, w, dfB.Tail.IntAt(i), gs.DF[w])
			}
		}
	}
}
