//go:build pooldebug

package bat

import (
	"math/rand"
	"testing"
)

// TestBlockCursorPoolNoLeaks drives the compressed scan over success
// (unweighted and weighted) and corrupt-payload error paths and requires every
// borrowed cursor set to be back in the pool afterwards. Runs only under
// -tags pooldebug (the borrow registry is compiled out otherwise).
func TestBlockCursorPoolNoLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	si := mkSynthIndex(rng, 10, 2500, 5, 4)
	blk := segSplit(si, []int{900, 2500}, false)
	base := LiveBlockCursors()

	for round := 0; round < 10; round++ {
		query := []OID{OID(rng.Intn(11)), OID(rng.Intn(11)), OID(rng.Intn(11))}
		if _, err := PrunedTopKSegs(blk, query, nil, 0.4, 1+rng.Intn(20), si.domain, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := PrunedTopKSegs(blk, query, []float64{1, 2, 0}, 0.4, 5, si.domain, nil); err != nil {
			t.Fatalf("round %d weighted: %v", round, err)
		}
	}

	// Error path: corrupt payload must still release on the way out.
	bad := segSplit(si, []int{900, 2500}, false)
	data := bad[0].BlkDoc.Tail.Bytes()
	for i := range data {
		data[i] = 0xff
	}
	if _, err := PrunedTopKSegs(bad, []OID{0, 1, 2}, nil, 0.4, 5, si.domain, nil); err == nil {
		t.Fatal("corrupt scan returned no error")
	}

	if live := LiveBlockCursors(); live != base {
		t.Fatalf("leaked %d block cursor sets", live-base)
	}
}
