package moa

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mirror/internal/bat"
)

// names collects the name field of a map[THIS.name](...) result.
func names(t *testing.T, res *Result) []string {
	t.Helper()
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r.Value.(string))
	}
	return out
}

// TestAtomParamBindsPerCall guards against a parameter value leaking into
// the cached plan as a folded constant: one Prepared, bound with different
// scalars, must answer differently — through a bare parameter, a constant
// expression over it (folded at bind), a unary over it, and a predicate
// made of parameters only.
func TestAtomParamBindsPerCall(t *testing.T) {
	db := mkPeopleDB(t) // ages: ada 30, bob 20, cy 40, dee 25
	eng := NewEngine(db)
	intP := map[string]Type{"minage": IntType}
	cases := []struct {
		src  string
		want map[int64][]string
	}{
		{`map[THIS.name](select[THIS.age >= minage](People));`,
			map[int64][]string{24: {"ada", "cy", "dee"}, 31: {"cy"}, 99: {}}},
		{`map[THIS.name](select[THIS.age >= minage + 6](People));`,
			map[int64][]string{24: {"ada", "cy"}, 14: {"ada", "bob", "cy", "dee"}}},
		{`map[THIS.name](select[THIS.age > -minage + 60](People));`,
			map[int64][]string{24: {"cy"}, 41: {"ada", "bob", "cy", "dee"}}},
		{`map[THIS.name](select[minage > 30](People));`,
			map[int64][]string{24: {}, 31: {"ada", "bob", "cy", "dee"}}},
		{`map[THIS.name](select[not (minage > 30)](People));`,
			map[int64][]string{24: {"ada", "bob", "cy", "dee"}, 31: {}}},
	}
	for _, c := range cases {
		p, err := eng.Prepare(c.src, intP)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if sl := p.Slots(); len(sl) != 1 || sl[0].Name != "minage" || !sl[0].T.Equal(IntType) {
			t.Fatalf("%s: slots %+v", c.src, sl)
		}
		for v, want := range c.want {
			bound, err := p.Bind([]any{v}, nil)
			if err != nil {
				t.Fatalf("%s minage=%d: %v", c.src, v, err)
			}
			res, err := bound.Run()
			if err != nil {
				t.Fatalf("%s minage=%d: %v", c.src, v, err)
			}
			if got := names(t, res); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s minage=%d: got %v, want %v", c.src, v, got, want)
			}
		}
	}
	// The wrapper path: same source, different scalar, second call is a
	// cache hit and still answers for its own value.
	q := `count(select[THIS.age >= minage](People));`
	for i, v := range []int64{24, 31} {
		res, err := eng.Query(q, map[string]Param{"minage": {T: IntType, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int64{3, 1}[i]; res.Scalar != want {
			t.Fatalf("count at minage=%d = %v, want %d", v, res.Scalar, want)
		}
	}
	// A scalar query that is nothing but parameter arithmetic.
	res, err := eng.Query(`minage * 2 + 1;`, map[string]Param{"minage": {T: IntType, V: int64(20)}})
	if err != nil || res.Scalar != int64(41) {
		t.Fatalf("minage*2+1 = %v, %v", res, err)
	}
}

// TestBindChecksArity: values are positional; a wrong count is an error,
// as is a value of the wrong Go type for a set slot.
func TestBindChecksArity(t *testing.T) {
	eng := NewEngine(mkPeopleDB(t))
	p, err := eng.Prepare(`map[THIS.score + sum(bonus)](select[THIS.age > minage](People));`,
		map[string]Type{"minage": IntType, "bonus": &SetType{Elem: FloatType}})
	if err != nil {
		t.Fatal(err)
	}
	if sl := p.Slots(); len(sl) != 2 || sl[0].Name != "bonus" || sl[1].Name != "minage" {
		t.Fatalf("slots not sorted by name: %+v", sl)
	}
	if _, err := p.Bind([]any{[]float64{0.5}}, nil); err == nil {
		t.Fatal("one value for two slots must fail")
	}
	if _, err := p.Bind([]any{42, int64(1)}, nil); err == nil {
		t.Fatal("scalar for a set slot must fail")
	}
	c, err := p.Bind([]any{[]float64{0.5, 0.25}, int64(29)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("bound run: %+v, %v", res, err)
	}
}

// TestPlanCacheKey: a plan is served only for the same source, options and
// parameter names+types, and the database's structural version.
func TestPlanCacheKey(t *testing.T) {
	db := mkPeopleDB(t)
	eng := NewEngine(db)
	stats := func() [2]uint64 { h, m := eng.PlanCacheStats(); return [2]uint64{h, m} }
	q := `map[THIS.age + bump](People);`
	run := func(params map[string]Param) *Result {
		t.Helper()
		res, err := eng.Query(q, params)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(map[string]Param{"bump": {T: IntType, V: int64(1)}})
	run(map[string]Param{"bump": {T: IntType, V: int64(2)}})
	if got := stats(); got != [2]uint64{1, 1} {
		t.Fatalf("same query twice: hits/misses %v, want [1 1]", got)
	}
	// Same name, different type: the int plan must not serve a float bind.
	res := run(map[string]Param{"bump": {T: FloatType, V: 0.5}})
	if v, ok := res.Rows[0].Value.(float64); !ok || v != 30.5 {
		t.Fatalf("float bump row 0 = %#v", res.Rows[0].Value)
	}
	if got := stats(); got != [2]uint64{1, 2} {
		t.Fatalf("retyped parameter: hits/misses %v, want [1 2]", got)
	}
	// Different options: the cut is part of the key.
	if _, err := eng.QueryTopK(q, map[string]Param{"bump": {T: FloatType, V: 0.5}}, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got := stats(); got != [2]uint64{1, 3} {
		t.Fatalf("different TopK: hits/misses %v, want [1 3]", got)
	}
	// A structural change of a live database (here: a new BAT) retires
	// every cached plan; an append into an existing BAT does not.
	if _, err := db.Insert("People", map[string]any{"name": "eve", "age": 50, "score": 0.1, "grades": []any{}}); err != nil {
		t.Fatal(err)
	}
	if res := run(map[string]Param{"bump": {T: FloatType, V: 0.5}}); len(res.Rows) != 5 {
		t.Fatalf("cached plan must see appended rows, got %d", len(res.Rows))
	}
	if got := stats(); got != [2]uint64{2, 3} {
		t.Fatalf("after insert: hits/misses %v, want [2 3]", got)
	}
	db.PutBAT("People_extra", bat.NewDense(0, bat.KindInt))
	run(map[string]Param{"bump": {T: FloatType, V: 0.5}})
	if got := stats(); got != [2]uint64{2, 4} {
		t.Fatalf("after PutBAT: hits/misses %v, want [2 4]", got)
	}
}

// TestPlanCacheSlotVariants: one source keeps a plan for each of its
// last maxSlotVariants parameter signatures, so alternating two compiles
// nothing; a further signature evicts the key's oldest plan.
func TestPlanCacheSlotVariants(t *testing.T) {
	eng := NewEngine(mkPeopleDB(t))
	q := `map[THIS.age + bump](People);`
	sigs := []map[string]Param{
		{"bump": {T: IntType, V: int64(1)}},
		{"bump": {T: FloatType, V: 0.5}},
		{"bump": {T: IntType, V: int64(1)}, "unused": {T: IntType, V: int64(2)}},
	}
	run := func(params map[string]Param) [2]uint64 {
		t.Helper()
		if _, err := eng.Query(q, params); err != nil {
			t.Fatal(err)
		}
		h, m := eng.PlanCacheStats()
		return [2]uint64{h, m}
	}
	run(sigs[0])
	run(sigs[1])
	for i := 0; i < 10; i++ {
		if got, want := run(sigs[i%2]), [2]uint64{uint64(i + 1), 2}; got != want {
			t.Fatalf("alternation %d: hits/misses %v, want %v", i, got, want)
		}
	}
	if got := run(sigs[2]); got != [2]uint64{10, 3} {
		t.Fatalf("third signature: hits/misses %v, want [10 3]", got)
	}
	if got := run(sigs[1]); got != [2]uint64{11, 3} {
		t.Fatalf("the newer of the first two was evicted: hits/misses %v, want [11 3]", got)
	}
	if got := run(sigs[0]); got != [2]uint64{11, 4} {
		t.Fatalf("the oldest plan survived a third signature: hits/misses %v, want [11 4]", got)
	}
}

// TestPlanCacheBounded: adversarial traffic of distinct sources cannot
// grow the cache past its constant capacity, an oversized source is never
// retained, and the least recently used plan is the one evicted.
func TestPlanCacheBounded(t *testing.T) {
	eng := NewEngine(mkPeopleDB(t))
	hot := `map[THIS.age](People);`
	for i := 0; i < 10*planCacheCap; i++ {
		if _, err := eng.Query(fmt.Sprintf(`map[THIS.age + %d](People);`, i), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(hot, nil); err != nil { // stays recently used
			t.Fatal(err)
		}
		if n := len(eng.plans.plans); n > planCacheCap {
			t.Fatalf("after %d distinct sources the cache holds %d plans (cap %d)", i+1, n, planCacheCap)
		}
	}
	if hits, _ := eng.PlanCacheStats(); hits != 10*planCacheCap-1 {
		t.Fatalf("the hot query should have hit every time but the first: %d hits", hits)
	}
	big := `map[THIS.age` + strings.Repeat(" + 1", maxCachedSrc/4) + `](People);`
	if _, err := eng.Query(big, nil); err != nil {
		t.Fatal(err)
	}
	for k := range eng.plans.plans {
		if len(k.src) > maxCachedSrc {
			t.Fatalf("a %d-byte source was cached (limit %d)", len(k.src), maxCachedSrc)
		}
	}
}
