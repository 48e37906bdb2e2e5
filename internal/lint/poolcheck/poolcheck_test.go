package poolcheck

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagsPrePRLeaks pins the analyzer against the exact pre-fix
// Session.Run / dual-coding combination shapes (testdata/leaky mirrors the tree
// before this change): both error-path leaks must be reported.
func TestFlagsPrePRLeaks(t *testing.T) {
	diags, err := CheckDir(filepath.Join("testdata", "leaky"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Logf("diagnostic: %s", d)
	}
	wantSubstr := []string{
		`"ts" is not released on this return path`,       // both functions
		`"cs" is not released on this return path`,       // sessionRun's maybe-borrow
		`"combined" is not released on this return path`, // both CombineSum error paths
		"borrow is discarded",
		"is overwritten while still live",
		"raw scoresPool.Get",
		"raw scoresPool.Put",
		`"cset" is not released on this return path`, // block-decode cursor set
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
	// The two pre-existing leaks the fix addresses: ts dropped on the
	// WeightedContentScores error path of sessionRun AND on the
	// QueryContent error path of combineDualEvidence.
	tsLeaks := 0
	for _, d := range diags {
		if strings.Contains(d.Msg, `"ts" is not released`) {
			tsLeaks++
		}
	}
	if tsLeaks != 2 {
		t.Errorf("got %d ts-leak diagnostics, want 2 (one per pre-PR function)", tsLeaks)
	}
}

// TestCleanFixturePasses: the post-fix shapes (release on every path,
// defer, ownership transfer by return, threading, escape, loops,
// switches) must produce zero diagnostics.
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
