package bat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Warm-θ ≡ cold-θ differential: opening the scan with a pre-raised
// threshold — a prior identical run's exact k-th score, or anything
// below it — must return the BUN-for-BUN identical ranking, ties
// included. This is the exactness contract the epoch-keyed θ-memo
// (internal/core) and the streamed distributed threshold (internal/dist)
// rest on: any θ ≤ the true global k-th score is pruning-only.
func TestPrunedTopKSeededThetaMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const def = 0.4
	for round := 0; round < 40; round++ {
		ndocs := 50 + rng.Intn(400)
		si := mkSynthIndex(rng, 2+rng.Intn(20), ndocs, 6, 3)

		for _, nseg := range []int{1, 2, 8} {
			cuts := map[int]bool{ndocs: true}
			for len(cuts) < nseg && len(cuts) < ndocs {
				cuts[1+rng.Intn(ndocs)] = true
			}
			var bounds []int
			for c := range cuts {
				bounds = append(bounds, c)
			}
			sort.Ints(bounds)
			segs := segSplit(si, bounds, false)

			k := 1 + rng.Intn(30)
			qlen := 1 + rng.Intn(5)
			query := make([]OID, qlen)
			for i := range query {
				query[i] = OID(rng.Intn(si.nterms + 1)) // may be OOV
			}
			var weights []float64
			if rng.Intn(2) == 0 {
				weights = make([]float64, qlen)
				for i := range weights {
					weights[i] = float64(rng.Intn(4))
				}
			}

			cold, err := PrunedTopKSegs(segs, query, weights, def, k, si.domain, nil)
			if err != nil {
				t.Fatalf("round %d nseg %d: cold: %v", round, nseg, err)
			}
			mustEqualRef(t, fmt.Sprintf("round %d nseg %d cold", round, nseg), si, query, weights, def, k, cold)
			if cold.Len() < k {
				continue // fewer than k scoreable docs: no exact seed exists
			}
			sk := cold.Tail.FloatAt(cold.Len() - 1)

			for si2, seed := range []float64{sk, sk - 0.07} {
				label := fmt.Sprintf("round %d nseg %d seed %d", round, nseg, si2)
				theta := NewTopKThreshold()
				theta.Raise(seed)
				warm, err := PrunedTopKSegs(segs, query, weights, def, k, si.domain, theta)
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				mustEqualRanking(t, label, cold, warm)
			}
		}
	}
}

// TestSeededThetaSkipsWork pins that a seeded threshold is not inert on
// the block layout: a warm scan must decode strictly fewer blocks than
// the cold scan of the same query (the whole point of the θ-memo).
func TestSeededThetaSkipsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const def = 0.4
	// Skewed beliefs: a rare high level dominates the top k while the
	// common level sits at the default, so blocks without a high posting
	// bound at ~fillBase — far below the terminal threshold — and every
	// term stays essential (no non-essential suffix to weaken the block
	// bound). This is the layout where block-max skipping can act.
	si := mkSynthIndex(rng, 6, 20000, 4, 0)
	for d := range si.perDoc {
		for tm := range si.perDoc[d] {
			if rng.Intn(512) == 0 {
				si.perDoc[d][tm] = 0.97
			} else {
				si.perDoc[d][tm] = def
			}
		}
	}
	blk := segSplit(si, []int{20000}, false)
	query := []OID{0, 1, 2}
	const k = 10

	cold0, _ := BlockScanStats()
	coldRes, err := PrunedTopKSegs(blk, query, nil, def, k, si.domain, nil)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	cold1, _ := BlockScanStats()

	theta := NewTopKThreshold()
	theta.Raise(coldRes.Tail.FloatAt(coldRes.Len() - 1))
	warm0, _ := BlockScanStats()
	if _, err := PrunedTopKSegs(blk, query, nil, def, k, si.domain, theta); err != nil {
		t.Fatalf("warm: %v", err)
	}
	warm1, _ := BlockScanStats()

	coldDecoded, warmDecoded := cold1-cold0, warm1-warm0
	if warmDecoded >= coldDecoded {
		t.Fatalf("warm scan decoded %d blocks, cold %d — seeded θ skipped nothing", warmDecoded, coldDecoded)
	}
}
