package moa

import (
	"fmt"
	"runtime"
	"testing"
)

// TestParallelMaterializationMatchesSerial runs set-typed queries through
// the flattened executor at GOMAXPROCS 1 and 4 and requires identical
// results row for row: a query runs on one goroutine, so neither the MIL
// operators nor the row materialisation may depend on the processor
// count. This is the Moa-layer end of internal/bat/procs_diff_test.go.
func TestParallelMaterializationMatchesSerial(t *testing.T) {
	db := NewDatabase()
	err := db.DefineFromSource(`
		define Crowd as SET<TUPLE<
			Atomic<str>: name,
			Atomic<int>: age,
			Atomic<flt>: score,
			SET<Atomic<flt>>: grades
		>>;`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		grades := make([]any, i%4)
		for g := range grades {
			grades[g] = float64((i+g)%7) + 0.5
		}
		if _, err := db.Insert("Crowd", map[string]any{
			"name":   fmt.Sprintf("p%03d", i%97),
			"age":    18 + i%50,
			"score":  float64(i%89) / 8,
			"grades": grades,
		}); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`map[THIS.score](Crowd);`,
		`map[TUPLE<n: THIS.name, s: THIS.score * 2.0>](Crowd);`,
		`select[THIS.age > 30 and THIS.age <= 60](Crowd);`,
		`map[sum(THIS.grades)](Crowd);`,
		`map[THIS.grades](Crowd);`,
		`Crowd;`,
	}
	at := func(procs int, q string) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := NewEngine(db).Query(q, nil)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d %q: %v", procs, q, err)
		}
		return res
	}
	for _, q := range queries {
		ser, par := at(1, q), at(4, q)
		if len(ser.Rows) != len(par.Rows) {
			t.Fatalf("%q: %d rows vs %d", q, len(ser.Rows), len(par.Rows))
		}
		for i := range ser.Rows {
			if ser.Rows[i].OID != par.Rows[i].OID {
				t.Fatalf("%q row %d: OID %d vs %d", q, i, ser.Rows[i].OID, par.Rows[i].OID)
			}
			if !valuesEqual(ser.Rows[i].Value, par.Rows[i].Value) {
				t.Fatalf("%q row %d: %v vs %v", q, i, ser.Rows[i].Value, par.Rows[i].Value)
			}
		}
	}
}
