package main

import (
	"strings"
	"testing"
)

// TestDistributed runs the example end to end and checks its key lines:
// Figure 1 over real sockets: a client discovers the DBMS, runs a dual-
// coding query and a scalar Moa query over RPC.
func TestDistributed(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"robot crawled 24 items; running pipeline via daemons...",
		"client dual-coding query \"forest\":\n  1. http://",
		"client Moa query count(ImageLibraryInternal) = 24\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
