// Command poolcheck statically enforces the pooled borrow/return
// discipline on the query hot path (see internal/lint/poolcheck): every
// piece of pooled query scratch must be released exactly once on
// every control-flow path, including error returns. CI runs it over
// ./internal; it exits non-zero when any violation is found.
//
// Usage:
//
//	poolcheck [dir ...]   (default: ./internal)
package main

import (
	"flag"
	"fmt"
	"os"

	"mirror/internal/lint/poolcheck"
)

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"internal"}
	}
	failed := false
	for _, dir := range dirs {
		diags, err := poolcheck.CheckTree(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poolcheck: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
