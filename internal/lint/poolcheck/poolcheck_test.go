package poolcheck

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsPrePRLeaks pins the analyzer against error-path leaks in the
// shapes of the query hot path (testdata/leaky): every leak must be
// reported.
func TestFlagsPrePRLeaks(t *testing.T) {
	diags, err := CheckDir(filepath.Join("testdata", "leaky"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Logf("diagnostic: %s", d)
	}
	wantSubstr := []string{
		`"scratch" is not released on this return path`, // both functions
		`"sc" is not released on this return path`,      // cutLeg's maybe-borrow
		`"cset" is not released on this return path`,    // both decode/merge error paths
		"borrow is discarded",
		"is overwritten while still live",
		"raw rowPool.Get",
		"raw rowPool.Put",
		`"cur" is not released on this return path`, // block-decode cursor set
	}
	for _, want := range wantSubstr {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q", want)
		}
	}
	// scratch is dropped on the scan error path of cutLeg AND on the
	// empty-leg path of mergeLegs; cset on both functions' late error
	// paths.
	for name, want := range map[string]int{"scratch": 2, "cset": 2} {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Msg, `"`+name+`" is not released`) {
				n++
			}
		}
		if n != want {
			t.Errorf("got %d %s-leak diagnostics, want %d (one per function)", n, name, want)
		}
	}
	if len(diags) != 10 {
		t.Errorf("got %d diagnostics, want 10", len(diags))
	}
}

// TestCleanFixturePasses: the fixed shapes (release on every path,
// defer, ownership transfer by return, escape, loops, switches) must
// produce zero diagnostics.
func TestCleanFixturePasses(t *testing.T) {
	diags, err := CheckDir(filepath.Join("testdata", "clean"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestRepoIsClean runs the analyzer over the real internal tree — the
// same invocation CI uses — and requires zero findings: the borrow/return
// discipline holds everywhere, including every error path.
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "..", "..", "internal")
	diags, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("pool discipline violation: %s", d)
	}
}
