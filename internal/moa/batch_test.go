package moa

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mirror/internal/bat"
)

// dumpDB renders a database's whole physical state: every BAT (kinds,
// property flags and every BUN), every OID counter and every set's
// cardinality, in a canonical order.
func dumpDB(db *Database) string {
	var sb strings.Builder
	for _, name := range db.BATNames() {
		b, _ := db.BAT(name)
		fmt.Fprintf(&sb, "%s [%s,%s] %v %v %v %v:", name, b.Head.Kind(), b.Tail.Kind(), b.HSorted, b.TSorted, b.HKey, b.TKey)
		for i := 0; i < b.Len(); i++ {
			h, t, _ := b.Fetch(i)
			fmt.Fprintf(&sb, " <%s,%s>", bat.FormatValue(h), bat.FormatValue(t))
		}
		sb.WriteByte('\n')
	}
	ns := make([]string, 0, len(db.counters))
	for k := range db.counters {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	for _, k := range ns {
		fmt.Fprintf(&sb, "counter %s = %d\n", k, db.counters[k])
	}
	for _, s := range db.Sets() {
		fmt.Fprintf(&sb, "card %s = %d\n", s.Name, s.Card)
	}
	return sb.String()
}

// batchSchema covers every atom kind, a SET and a LIST of atoms, and a
// SET of tuples that nest a LIST of their own.
const batchSchema = `
	define T as SET<TUPLE<
		Atomic<str>: s, Atomic<int>: i, Atomic<flt>: f, Atomic<bit>: b, Atomic<oid>: o,
		SET<Atomic<flt>>: grades,
		LIST<Atomic<int>>: xs,
		SET<TUPLE<Atomic<str>: tag, LIST<Atomic<str>>: words>>: kids
	>>;
	define A as SET<Atomic<int>>;`

// batchRows returns n rows of T in Insert's form and the same rows as
// InsertBatch's columns (typed slices for the atoms, []any for the sets).
func batchRows(n, seed int) ([]map[string]any, map[string]any) {
	rows := make([]map[string]any, n)
	cols := map[string]any{
		"s": make([]string, n), "i": make([]int64, n), "f": make([]float64, n),
		"b": make([]bool, n), "o": make([]bat.OID, n),
		"grades": make([]any, n), "xs": make([]any, n), "kids": make([]any, n),
	}
	for r := 0; r < n; r++ {
		v := seed + r
		grades := make([]any, v%3)
		for j := range grades {
			grades[j] = float64(v*10 + j)
		}
		xs := make([]any, (v+1)%4)
		for j := range xs {
			xs[j] = int64(v - j)
		}
		kids := make([]any, v%2+r%3)
		for j := range kids {
			words := make([]any, (v+j)%3)
			for w := range words {
				words[w] = fmt.Sprintf("w%d.%d.%d", v, j, w)
			}
			kids[j] = map[string]any{"tag": fmt.Sprintf("k%d", j), "words": words}
		}
		rows[r] = map[string]any{"s": fmt.Sprintf("row%d", v), "i": v, "f": float64(v) / 4, "b": v%2 == 0,
			"o": bat.OID(100 + v), "grades": grades, "xs": xs, "kids": kids}
		cols["s"].([]string)[r] = rows[r]["s"].(string)
		cols["i"].([]int64)[r] = int64(v)
		cols["f"].([]float64)[r] = rows[r]["f"].(float64)
		cols["b"].([]bool)[r] = rows[r]["b"].(bool)
		cols["o"].([]bat.OID)[r] = bat.OID(100 + v)
		cols["grades"].([]any)[r] = grades
		cols["xs"].([]any)[r] = xs
		cols["kids"].([]any)[r] = kids
	}
	return rows, cols
}

func newBatchDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.DefineFromSource(batchSchema); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInsertBatchEqualsTupleInserts: N rows inserted as one batch, as
// typed columns or as []any rows, leave every BAT, every OID counter and
// every cardinality exactly as N single Inserts — also when the batches
// follow earlier inserts, and for a set of atoms.
func TestInsertBatchEqualsTupleInserts(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		single, typed, rowsDB := newBatchDB(t), newBatchDB(t), newBatchDB(t)
		for round := 0; round < 2; round++ {
			rows, cols := batchRows(n, 10*round)
			anyRows := make([]any, n)
			for r, row := range rows {
				anyRows[r] = row
				if _, err := single.Insert("T", row); err != nil {
					t.Fatal(err)
				}
			}
			want := single.counters["T"] - uint64(n)
			for _, c := range []struct {
				db  *Database
				col any
			}{{typed, cols}, {rowsDB, anyRows}} {
				first, err := c.db.InsertBatch("T", c.col)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if uint64(first) != want {
					t.Fatalf("n=%d: first OID %d, want %d", n, first, want)
				}
			}
			atoms := []any{int64(round), 3 + round}
			for _, a := range atoms {
				if _, err := single.Insert("A", a); err != nil {
					t.Fatal(err)
				}
			}
			for _, db := range []*Database{typed, rowsDB} {
				if _, err := db.InsertBatch("A", atoms); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := dumpDB(single)
		for name, db := range map[string]*Database{"typed columns": typed, "[]any rows": rowsDB} {
			if got := dumpDB(db); got != want {
				t.Fatalf("n=%d, %s: batch state differs from single inserts:\n%s\nwant:\n%s", n, name, got, want)
			}
		}
	}
}

// TestInsertBatchRefusesBeforeAppending: a bad value in any row, at any
// depth, refuses the whole batch and leaves the database untouched.
func TestInsertBatchRefusesBeforeAppending(t *testing.T) {
	db := newBatchDB(t)
	rows, _ := batchRows(3, 0)
	for _, r := range rows {
		if _, err := db.Insert("T", r); err != nil {
			t.Fatal(err)
		}
	}
	before := dumpDB(db)
	bad := []struct {
		name string
		mut  func(cols map[string]any)
	}{
		{"wrong atom in the last row", func(c map[string]any) {
			c["i"] = []any{int64(1), int64(2), int64(3), "four"}
		}},
		{"short column", func(c map[string]any) { c["s"] = []string{"a"} }},
		{"typed slice of the wrong kind", func(c map[string]any) { c["f"] = []int64{1, 2, 3, 4} }},
		{"missing field", func(c map[string]any) { delete(c, "o") }},
		{"unknown field", func(c map[string]any) { c["zz"] = []string{"a", "b", "c", "d"} }},
		{"set row not a list", func(c map[string]any) { c["grades"].([]any)[3] = 1.5 }},
		{"bad list item", func(c map[string]any) { c["xs"].([]any)[3] = []any{int64(1), "x"} }},
		{"nested tuple missing a field", func(c map[string]any) {
			c["kids"].([]any)[3] = []any{map[string]any{"tag": "t"}}
		}},
		{"nested list item", func(c map[string]any) {
			c["kids"].([]any)[3] = []any{map[string]any{"tag": "t", "words": []any{"ok", 7}}}
		}},
	}
	for _, b := range bad {
		_, cols := batchRows(4, 50)
		b.mut(cols)
		if _, err := db.InsertBatch("T", cols); err == nil {
			t.Fatalf("%s: accepted", b.name)
		}
		if got := dumpDB(db); got != before {
			t.Fatalf("%s: a refused batch changed the database:\n%s\nwant:\n%s", b.name, got, before)
		}
	}
	if _, err := db.InsertBatch("T", []any{rows[0], "not a tuple"}); err == nil || dumpDB(db) != before {
		t.Fatalf("a bad []any row: err %v, or the database changed", err)
	}
	if _, err := db.InsertBatch("Nope", []any{}); err == nil {
		t.Fatal("an unknown set was accepted")
	}
}
