package bat

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPrunedTopKBlocksParallelMatchesSerial forces the document-range
// partitioned path (threshold lowered to 1) on a corpus large enough to
// span many blocks and demands the exhaustive reference ranking from it
// and from the forced-serial scan alike. This exercises the
// partition-seek logic in scanBlockPartition (mid-block doc bounds)
// specifically.
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
		for _, thr := range []int{1, 1 << 30} { // parallel, then forced serial
			old := SetParallelThreshold(thr)
			got, err := PrunedTopKSegs(segs, query, weights, def, k, si.domain, nil)
			SetParallelThreshold(old)
			if err != nil {
				t.Fatalf("round %d thr %d: %v", round, thr, err)
			}
			mustEqualRef(t, fmt.Sprintf("round %d thr %d", round, thr), si, query, weights, def, k, got)
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
