package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/moa"
)

// dumpLib renders every BAT of a database (kinds, flags, every BUN), the
// OID counter of every namespace and every cardinality.
func dumpLib(db *moa.Database) string {
	var sb strings.Builder
	for _, name := range db.BATNames() {
		b, _ := db.BAT(name)
		fmt.Fprintf(&sb, "%s [%s,%s] %v %v %v %v:", name, b.Head.Kind(), b.Tail.Kind(), b.HSorted, b.TSorted, b.HKey, b.TKey)
		for i := 0; i < b.Len(); i++ {
			h, t, _ := b.Fetch(i)
			fmt.Fprintf(&sb, " <%s,%s>", bat.FormatValue(h), bat.FormatValue(t))
		}
		if ns, ok := strings.CutSuffix(name, "__id"); ok {
			fmt.Fprintf(&sb, " counter %d", db.NextOID(ns, 0))
		}
		sb.WriteByte('\n')
	}
	for _, s := range db.Sets() {
		fmt.Fprintf(&sb, "card %s = %d\n", s.Name, s.Card)
	}
	return sb.String()
}

// TestContrepBatchEqualsTupleInserts: CONTREP documents inserted in
// batches — raw texts, analysed term lists, []any rows — leave every raw
// and, after Finalize, every derived column exactly as one Insert per
// document, including dictionary OIDs of terms first seen mid-batch and
// single inserts interleaved between batches.
func TestContrepBatchEqualsTupleInserts(t *testing.T) {
	const schema = `define Lib as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: body, CONTREP<Image>: image>>;`
	rng := rand.New(rand.NewSource(3))
	const n = 60
	urls, texts, words := make([]string, n), make([]string, n), make([][]string, n)
	for i := range urls {
		urls[i], texts[i] = fmt.Sprintf("u%d", i), segTestDoc(rng, i)
		if i%9 == 4 {
			texts[i] = "" // an empty document still has a length row
		}
		for j := rng.Intn(4); j > 0; j-- {
			words[i] = append(words[i], fmt.Sprintf("c%d", rng.Intn(6)))
		}
	}
	mk := func() *moa.Database {
		db := moa.NewDatabase()
		if err := db.DefineFromSource(schema); err != nil {
			t.Fatal(err)
		}
		return db
	}
	single := mk()
	for i := range urls {
		if _, err := single.Insert("Lib", map[string]any{"source": urls[i], "body": texts[i], "image": words[i]}); err != nil {
			t.Fatal(err)
		}
	}
	batched := mk()
	analysed := make([][]string, n)
	for i, text := range texts {
		analysed[i] = Analyze(text)
	}
	rows := make([]any, 0, 20)
	for i := 40; i < 60; i++ {
		rows = append(rows, map[string]any{"source": urls[i], "body": texts[i], "image": words[i]})
	}
	for _, step := range []func() (bat.OID, error){
		func() (bat.OID, error) {
			return batched.InsertBatch("Lib", map[string]any{"source": urls[:25], "body": texts[:25], "image": words[:25]})
		},
		func() (bat.OID, error) {
			return batched.Insert("Lib", map[string]any{"source": urls[25], "body": texts[25], "image": words[25]})
		},
		func() (bat.OID, error) {
			return batched.InsertBatch("Lib", map[string]any{"source": urls[26:40], "body": analysed[26:40], "image": words[26:40]})
		},
		func() (bat.OID, error) { return batched.InsertBatch("Lib", rows) },
	} {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dumpLib(batched), dumpLib(single); got != want {
		t.Fatalf("raw columns differ from single inserts:\n%s\nwant:\n%s", got, want)
	}
	for _, db := range []*moa.Database{single, batched} {
		if err := db.Finalize("Lib"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dumpLib(batched), dumpLib(single); got != want {
		t.Fatalf("finalized columns differ from single inserts:\n%s\nwant:\n%s", got, want)
	}
	before := dumpLib(batched)
	if _, err := batched.InsertBatch("Lib", map[string]any{"source": []string{"x", "y"}, "body": []any{"ok", 42}, "image": [][]string{nil, nil}}); err == nil {
		t.Fatal("a batch with a bad CONTREP value was accepted")
	}
	if dumpLib(batched) != before {
		t.Fatal("a refused batch changed the database")
	}
}

// contrepDocAllocs pins the objects allocated per CONTREP document
// inserted in batches of 128 analysed documents (source plus two CONTREP
// fields, vocabulary already in the dictionary): the bulk path allocates
// per batch and per BAT, not per document or posting. Measured at 0.25
// (32 per batch) with go1.24 on linux/amd64; the tuple-at-a-time insert
// it replaced allocated 47 per document.
const contrepDocAllocs = 0.25

// TestContrepBatchAllocsPerDocument is the deterministic counter behind
// the batch insert's setup gain.
func TestContrepBatchAllocsPerDocument(t *testing.T) {
	db := moa.NewDatabase()
	if err := db.DefineFromSource(`define Lib as SET<TUPLE<Atomic<URL>: source, CONTREP<Text>: body, CONTREP<Image>: image>>;`); err != nil {
		t.Fatal(err)
	}
	const docs = 128
	rng := rand.New(rand.NewSource(9))
	urls, body, image := make([]string, docs), make([][]string, docs), make([][]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("img://%d", i)
		body[i] = Analyze(segTestDoc(rng, 0))
		image[i] = []string{"c1", "c2", fmt.Sprintf("c%d", i%7)}
	}
	cols := map[string]any{"source": urls, "body": body, "image": image}
	if _, err := db.InsertBatch("Lib", cols); err != nil { // the vocabulary joins the dictionary
		t.Fatal(err)
	}
	perDoc := testing.AllocsPerRun(50, func() {
		if _, err := db.InsertBatch("Lib", cols); err != nil {
			t.Fatal(err)
		}
	}) / docs
	t.Logf("%.3f allocs per document in batches of %d (pinned %.2f)", perDoc, docs, contrepDocAllocs)
	if perDoc > contrepDocAllocs {
		t.Fatalf("a batch allocates %.3f objects per document, over the pinned %.2f", perDoc, contrepDocAllocs)
	}
}
