package dist

import (
	"testing"
	"time"

	"mirror/internal/core"
)

// TestRouterQueriesIgnoreWriteLock write-holds the router's metadata lock —
// which Refresh and BuildContentIndex hold across their publish fan-out —
// and requires annotation, content and dual-coding queries to answer
// within a second: the gather reads only the pinned epoch vector, whose
// URL order and thesaurus were frozen at publish.
func TestRouterQueriesIgnoreWriteLock(t *testing.T) {
	c := startCluster(t, 2, 1)
	c.ingest(testItems(18))
	if err := c.router.BuildContentIndex(testIndexOptions()); err != nil {
		t.Fatal(err)
	}
	const text = "ocean forest"
	concepts := c.router.ExpandQuery(text, 3)
	if len(concepts) == 0 {
		t.Fatalf("%q expands to no concepts; the content query would not scan", text)
	}
	c.router.mu.Lock()
	defer c.router.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		if _, err := hitsOf(c.router, core.Query{Stmt: core.StmtAnnotation, Text: text, K: 5}); err != nil {
			done <- err
			return
		}
		if _, err := hitsOf(c.router, core.Query{Stmt: core.StmtContent, Terms: concepts, K: 5}); err != nil {
			done <- err
			return
		}
		_, err := hitsOf(c.router, core.Query{Stmt: core.StmtDual, Text: text, K: 5})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("router queries blocked behind its write lock")
	}
}
