package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end and checks its key lines: the
// Section 3 ranking query flattens to MIL and ranks the beach first, with
// and without the relational select.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flattens to MIL:\n",
		"ranking for query \"ocean waves\":\n  1. http://lib/beach.ppm",
		"reef excluded via relational select: top hit http://lib/beach.ppm",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
