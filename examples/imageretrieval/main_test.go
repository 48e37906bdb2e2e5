package main

import (
	"strings"
	"testing"
)

// TestImageRetrieval runs the example end to end and checks its key lines:
// the Section 5 loop answers text, expansion, dual-coding and feedback-
// session queries on one store.
func TestImageRetrieval(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"text-only retrieval for \"ocean\":\n  * 1. ",
		"thesaurus associates \"ocean\" with clusters [",
		"dual-coding retrieval (finds unannotated water images too):\n  * 1. ",
		"(unannotated)",
		"feedback round 2: precision@10 = ",
		"after feedback: precision@10 = ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
