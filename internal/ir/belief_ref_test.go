package ir

import (
	"math"
	"testing"
	"testing/quick"
)

// refBelief is Belief as it stood before it was split into termIDF,
// lenNorm and tfBelief: the whole formula, both logarithms included, per
// posting.
func refBelief(tf int, dl int, avgdl float64, df int, n int) float64 {
	if tf <= 0 || df <= 0 || n <= 0 {
		return DefaultBelief
	}
	if avgdl <= 0 {
		avgdl = 1
	}
	t := float64(tf) / (float64(tf) + 0.5 + 1.5*float64(dl)/avgdl)
	i := math.Log((float64(n)+0.5)/float64(df)) / math.Log(float64(n)+1)
	if i < 0 {
		i = 0
	}
	return DefaultBelief + (1-DefaultBelief)*t*i
}

// splitBelief evaluates a belief the way a refinalize does: the idf
// factor once per term, the length norm once per document, the tf part
// per posting.
func splitBelief(tf, dl int, avgdl float64, df, n int) float64 {
	bc := &beliefCalc{idf: make([]float64, 1), hasIDF: make([]bool, 1), norm: []float64{lenNorm(dl, avgdl)}}
	bc.idf[0], bc.hasIDF[0] = termIDF(df, n)
	return bc.belief(0, 0, int64(tf))
}

// TestSplitBeliefMatchesReference: the split evaluation and Belief equal
// the unsplit formula bit for bit, on every degenerate input and on
// ordinary ones (including df > n, where the idf factor clamps at 0).
func TestSplitBeliefMatchesReference(t *testing.T) {
	cases := []struct {
		name          string
		tf, dl, df, n int
		avgdl         float64
	}{
		{"tf 0", 0, 12, 3, 100, 9.5},
		{"tf < 0", -2, 12, 3, 100, 9.5},
		{"df 0", 2, 12, 0, 100, 9.5},
		{"df < 0", 2, 12, -1, 100, 9.5},
		{"n 0", 2, 12, 3, 0, 9.5},
		{"n < 0", 2, 12, 3, -7, 9.5},
		{"avgdl 0", 2, 12, 3, 100, 0},
		{"avgdl < 0", 2, 12, 3, 100, -4},
		{"dl 0", 2, 0, 3, 100, 9.5},
		{"df > n", 2, 12, 500, 100, 9.5},
		{"df = n", 1, 1, 1, 1, 1},
		{"ordinary", 3, 17, 41, 7600, 11.83},
	}
	for _, c := range cases {
		want := refBelief(c.tf, c.dl, c.avgdl, c.df, c.n)
		for name, got := range map[string]float64{
			"split":  splitBelief(c.tf, c.dl, c.avgdl, c.df, c.n),
			"Belief": Belief(c.tf, c.dl, c.avgdl, c.df, c.n),
		} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s = %v, reference %v", c.name, name, got, want)
			}
		}
	}
	f := func(tf, dl uint16, df, n uint32, avgdl float64) bool {
		want := refBelief(int(tf), int(dl), avgdl, int(df), int(n))
		return math.Float64bits(splitBelief(int(tf), int(dl), avgdl, int(df), int(n))) == math.Float64bits(want) &&
			math.Float64bits(Belief(int(tf), int(dl), avgdl, int(df), int(n))) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
