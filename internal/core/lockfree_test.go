package core

import (
	"sync"
	"testing"
	"time"
)

// assertAnswersUnderWriteLock write-holds mu — an engine's metadata lock,
// which Refresh, Checkpoint and full builds hold across their publishes —
// and requires an annotation, a content and a dual-coding query to answer
// within a second: ranked queries read only their pinned view.
func assertAnswersUnderWriteLock(t *testing.T, label string, mu *sync.RWMutex, r Retriever) {
	t.Helper()
	const text = "harbor gull"
	concepts := r.ExpandQuery(text, 3)
	if len(concepts) == 0 {
		t.Fatalf("%s: %q expands to no concepts; the content query would not scan", label, text)
	}
	mu.Lock()
	defer mu.Unlock()
	done := make(chan error, 1)
	go func() {
		if _, err := rank(r, Query{Stmt: StmtAnnotation, Text: text, K: 5}); err != nil {
			done <- err
			return
		}
		if _, err := rank(r, Query{Stmt: StmtContent, Terms: concepts, K: 5}); err != nil {
			done <- err
			return
		}
		_, err := rank(r, Query{Stmt: StmtDual, Text: text, K: 5})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s: ranked queries blocked behind the engine's write lock", label)
	}
}

// TestQueriesIgnoreEngineWriteLocks pins the lock-free view rule on the
// single store and the in-process sharded engine (the router's half is
// in internal/dist).
func TestQueriesIgnoreEngineWriteLocks(t *testing.T) {
	urls, anns := refreshCorpus(40, 3)
	m := oneShotStub(t, urls, anns)
	assertAnswersUnderWriteLock(t, "single store", &m.mu, m)

	e, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range urls {
		if err := e.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		t.Fatal(err)
	}
	assertAnswersUnderWriteLock(t, "sharded engine N=2", &e.mu, e)
}
