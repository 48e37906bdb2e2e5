package main

import (
	"strings"
	"testing"
)

// TestDualCoding runs the example end to end and checks its key lines: the
// thesaurus links words and clusters both ways, and the text-only and
// dual-coding rankings are scored.
func TestDualCoding(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== word → cluster associations ==\n  sky        →  ",
		"== cluster → word associations",
		"MRR of first unannotated relevant image, text only:   ",
		"MRR of first unannotated relevant image, dual coding: ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
