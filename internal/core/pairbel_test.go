package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirror/internal/corpus"
	"mirror/internal/moa"
)

// pairBeliefColumns lists every pair-order belief column (_bel) or
// reversed term view (_termrev) of a CONTREP that m's live database, its
// serving epoch or a retained epoch holds. Beliefs live only in the
// postings segments, so the list must be empty.
func pairBeliefColumns(m *Mirror) []string {
	dbs := []*moa.Database{m.DB}
	if ep := m.currentEpoch(); ep != nil {
		dbs = append(dbs, ep.DB)
	}
	m.mu.RLock()
	for _, ep := range m.epochHist {
		dbs = append(dbs, ep.DB)
	}
	m.mu.RUnlock()
	var found []string
	for _, db := range dbs {
		for _, name := range db.BATNames() {
			if strings.HasSuffix(name, "_bel") || strings.HasSuffix(name, "_termrev") {
				found = append(found, name)
			}
		}
	}
	return found
}

func assertNoPairBeliefs(t *testing.T, label string, ms ...*Mirror) {
	t.Helper()
	for i, m := range ms {
		if found := pairBeliefColumns(m); len(found) > 0 {
			t.Fatalf("%s (store %d) holds %v", label, i, found)
		}
	}
}

// TestNoPairOrderBeliefs: after a build, a Refresh or an open, no store —
// single, sharded, or reopened from a fixture an earlier build wrote with
// the pair-order copy — nor any of its epochs holds _bel or _termrev, and
// a checkpoint writes neither.
func TestNoPairOrderBeliefs(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 40, W: 48, H: 48, Seed: 3, AnnotateRate: 0.8})
	opts := DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4

	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		for _, r := range []Retriever{m, e} {
			if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
			if i == 29 {
				if err := r.BuildContentIndex(opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i == 29 {
			assertNoPairBeliefs(t, "single store after build", m)
			assertNoPairBeliefs(t, "sharded store after build", e.shards...)
		}
	}
	for _, r := range []Retriever{m, e} {
		if _, err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	assertNoPairBeliefs(t, "single store after refresh", m)
	assertNoPairBeliefs(t, "sharded store after refresh", e.shards...)

	for _, fixture := range []string{preBlockFixture, v3Fixture} {
		dir := filepath.Join(t.TempDir(), "store")
		copyTree(t, fixture, dir)
		if !manifestLists(t, dir, "_termrev") {
			t.Fatalf("%s: fixture carries no pair-order copy to drop", fixture)
		}
		m, _, err := OpenPersistent(PersistOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		assertNoPairBeliefs(t, fixture+" opened", m)
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.ClosePersistent()
		if manifestLists(t, dir, "_bel") || manifestLists(t, dir, "_termrev") {
			t.Fatalf("%s: the checkpoint after open still lists the pair-order copy", fixture)
		}
	}

	dir := filepath.Join(t.TempDir(), "root")
	copyTree(t, v3ShardedFixture, dir)
	se, _, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer se.ClosePersistent()
	assertNoPairBeliefs(t, v3ShardedFixture+" opened", se.shards...)
}

// manifestLists reports whether dir's MANIFEST names a BAT ending in
// suffix.
func manifestLists(t *testing.T, dir, suffix string) bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(string(raw), suffix+`"`)
}
