package core

import (
	"reflect"
	"sync"
	"testing"
)

// A publish folds the thesaurus on its own goroutine, beside the CONTREP
// inserts, segment derivation and refinalize, and joins it before the WAL
// record and the epoch publish. These tests pin what that overlap must
// not change.

// TestRefreshOverlapsDualCodingQueries refreshes a store while dual-coding
// queries Associate on its shared thesaurus (run it under -race), then
// requires the one-shot build's thesaurus and rankings.
func TestRefreshOverlapsDualCodingQueries(t *testing.T) {
	const n, batch = 120, 40
	urls, anns := refreshCorpus(n, 21)
	m := oneShotStub(t, urls[:batch], anns[:batch])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r, q := range []string{"harbor gull", "kelp foam buoy"} {
		wg.Add(1)
		go func(r int, q string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rank(m, Query{Stmt: StmtDual, Text: q, K: 5}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r, q)
	}
	for at := batch; at < n; at += 20 {
		for i := at; i < at+20; i++ {
			if err := m.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		refreshStub(t, m)
	}
	close(stop)
	wg.Wait()

	ref := oneShotStub(t, urls, anns)
	if !reflect.DeepEqual(m.Thesaurus().State(), ref.Thesaurus().State()) {
		t.Fatal("thesaurus after overlapped refreshes differs from the one-shot build's")
	}
	assertSameRetrieval(t, "overlapped refreshes", ref, m, 10)
}

// TestRecoveryRestoresThesaurusState crashes after several WAL-logged
// publishes and requires the reopened store's thesaurus to equal the live
// one's: standalone replay folds beside the apply; a sharded engine's
// members stash their documents until the engine finishes the deferred
// publishes.
func TestRecoveryRestoresThesaurusState(t *testing.T) {
	const n, batch = 30, 10
	urls, anns := refreshCorpus(n, 23)
	publishes := []int{14, 21, n}

	t.Run("single", func(t *testing.T) {
		dir := t.TempDir()
		m := openStubPersistent(t, dir, urls, anns, batch)
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, hi := range publishes {
			for i := m.Size(); i < hi; i++ {
				if err := m.AddImage(urls[i], anns[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			refreshStub(t, m)
		}
		live := m.Thesaurus().State()
		if err := m.ClosePersistent(); err != nil {
			t.Fatal(err)
		}
		re, stats, err := OpenPersistent(PersistOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer re.ClosePersistent()
		if stats.WALRecords < len(publishes) {
			t.Fatalf("recovery replayed %d WAL records, want at least %d publishes", stats.WALRecords, len(publishes))
		}
		if !reflect.DeepEqual(re.Thesaurus().State(), live) {
			t.Fatal("recovered thesaurus differs from the live store's")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		e, _, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			if err := e.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, hi := range publishes {
			for i := e.Size(); i < hi; i++ {
				if err := e.AddImage(urls[i], anns[i], nil); err != nil {
					t.Fatal(err)
				}
			}
			engineRefreshStub(t, e)
		}
		live := e.Thesaurus().State()
		if err := e.ClosePersistent(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer re.ClosePersistent()
		if !reflect.DeepEqual(re.Thesaurus().State(), live) {
			t.Fatal("recovered engine thesaurus differs from the live engine's")
		}
	})
}
