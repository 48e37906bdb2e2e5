package core_test

import (
	"fmt"
	"testing"
	"time"

	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/dist"
)

// TestRouterMembersHoldNoPairOrderBeliefs: the router-member half of
// TestNoPairOrderBeliefs — served shard primaries and every epoch they
// retain for tag pinning hold no _bel or _termrev after a build and a
// Refresh.
func TestRouterMembersHoldNoPairOrderBeliefs(t *testing.T) {
	const nShards = 2
	items := corpus.Generate(corpus.Config{N: 30, W: 48, H: 48, Seed: 5, AnnotateRate: 0.8})
	members := make([]*core.Mirror, nShards)
	addrs := make([][]string, nShards)
	for i := range members {
		m, err := core.NewShardMember(i, nShards)
		if err != nil {
			t.Fatal(err)
		}
		m.KeepEpochHistory(8)
		addr, stop, err := core.ServeAs(m, "127.0.0.1:0", "", "mirror-shard", fmt.Sprintf("shard-%d-of-%d", i, nShards))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		members[i], addrs[i] = m, []string{addr}
	}
	router, err := dist.NewRouter(addrs, dist.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.ClosePersistent() })
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse"}
	opts.KMax = 4
	for i, it := range items {
		if err := router.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if err := router.BuildContentIndex(opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := router.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if found := core.PairBeliefColumns(m); len(found) > 0 {
			t.Fatalf("router member %d holds %v", i, found)
		}
	}
}
