package bat

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestPrunedTopKBlocksParallelMatchesSerial runs random queries over a
// corpus split mid-way into two segments, large enough to span many
// blocks, at GOMAXPROCS 4 and then 1, and demands the exhaustive
// reference ranking from both. This exercises the per-segment block seeks
// and the cross-segment merge of PrunedTopKSegs.
func TestPrunedTopKBlocksParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const def = 0.4
	si := mkSynthIndex(rng, 12, 4000, 6, 5)
	segs := segSplit(si, []int{1500, 4000}, false)

	for round := 0; round < 25; round++ {
		k := 1 + rng.Intn(40)
		qlen := 1 + rng.Intn(5)
		query := make([]OID, qlen)
		for i := range query {
			query[i] = OID(rng.Intn(14))
		}
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, qlen)
			for i := range weights {
				weights[i] = float64(rng.Intn(4))
			}
		}
		for _, procs := range []int{4, 1} {
			old := runtime.GOMAXPROCS(procs)
			got, err := PrunedTopKSegs(segs, query, weights, def, k, si.domain, nil)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("round %d GOMAXPROCS %d: %v", round, procs, err)
			}
			mustEqualRef(t, fmt.Sprintf("round %d GOMAXPROCS %d", round, procs), si, query, weights, def, k, got)
		}
	}
}

// TestPrunedTopKSameAtAnyGOMAXPROCS pins that one query is one
// goroutine: over a two-segment corpus whose 3–6-term queries touch well
// over 8 192 postings per segment, the same PrunedTopKSegs calls under
// GOMAXPROCS 1 and 4 return identical hits and identical BlockScanStats
// deltas, so the skip counters the benchmark reports are exact rather
// than sampled. The first rounds are also checked against the exhaustive
// reference ranking (which is quadratic, hence only a few).
func TestPrunedTopKSameAtAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const def = 0.4
	si := mkSynthIndex(rng, 6, 20000, 6, 5)
	segs := segSplit(si, []int{10000, 20000}, false)

	type round struct {
		query   []OID
		weights []float64
		k       int
	}
	rounds := make([]round, 12)
	for i := range rounds {
		qlen := 3 + rng.Intn(4)
		r := round{query: make([]OID, qlen), k: 1 + rng.Intn(40)}
		for j := range r.query {
			r.query[j] = OID(rng.Intn(8)) // 6 and 7 are out of vocabulary
		}
		if i%3 == 2 {
			r.weights = make([]float64, qlen)
			for j := range r.weights {
				r.weights[j] = float64(rng.Intn(4))
			}
		}
		rounds[i] = r
	}

	type outcome struct {
		hits             *BAT
		decoded, skipped int64
	}
	run := func(procs int) []outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]outcome, len(rounds))
		for i, r := range rounds {
			d0, s0 := BlockScanStats()
			got, err := PrunedTopKSegs(segs, r.query, r.weights, def, r.k, si.domain, nil)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d round %d: %v", procs, i, err)
			}
			d1, s1 := BlockScanStats()
			if procs == 1 && i < 2 {
				mustEqualRef(t, fmt.Sprintf("round %d", i), si, r.query, r.weights, def, r.k, got)
			}
			out[i] = outcome{got, d1 - d0, s1 - s0}
		}
		return out
	}
	one, four := run(1), run(4)
	for i := range rounds {
		mustEqualRanking(t, fmt.Sprintf("round %d GOMAXPROCS 1 vs 4", i), one[i].hits, four[i].hits)
		if one[i].decoded != four[i].decoded || one[i].skipped != four[i].skipped {
			t.Fatalf("round %d: blocks decoded/skipped %d/%d at GOMAXPROCS=1, %d/%d at 4",
				i, one[i].decoded, one[i].skipped, four[i].decoded, four[i].skipped)
		}
	}
}

// TestBlockScanStatsCount pins that the compressed scan accounts its
// block decodes and block-max skips: a scan must decode at least one
// block, and the decoded+skipped total can never exceed the corpus
// block count per scan... it must stay plausible (non-negative deltas).
func TestBlockScanStatsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	si := mkSynthIndex(rng, 8, 3000, 5, 0)
	blk := segSplit(si, []int{3000}, false)

	d0, s0 := BlockScanStats()
	if _, err := PrunedTopKSegs(blk, []OID{0, 1, 2}, nil, 0.4, 5, si.domain, nil); err != nil {
		t.Fatalf("scan: %v", err)
	}
	d1, s1 := BlockScanStats()
	if d1 <= d0 {
		t.Fatalf("no blocks decoded: %d -> %d", d0, d1)
	}
	if s1 < s0 {
		t.Fatalf("skip counter went backwards: %d -> %d", s0, s1)
	}
}

// TestPrunedTopKSegsBlockCorruptErrors feeds a block segment whose
// directory validates but whose payload is corrupt: the scan must
// return an error, never panic, and never silently mis-rank.
func TestPrunedTopKSegsBlockCorruptErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	si := mkSynthIndex(rng, 6, 400, 5, 0)
	blk := segSplit(si, []int{400}, false)

	// Corrupt the doc payload in place: flip bytes until validation still
	// passes but decode fails somewhere. Zeroing the whole payload is the
	// bluntest such corruption.
	data := blk[0].BlkDoc.Tail.Bytes()
	for i := range data {
		data[i] = 0xff
	}
	_, err := PrunedTopKSegs(blk, []OID{0, 1, 2, 3}, nil, 0.4, 5, si.domain, nil)
	if err == nil {
		t.Fatal("corrupt block payload scanned without error")
	}
}
