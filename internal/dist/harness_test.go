package dist

import (
	"testing"
	"time"

	"mirror/internal/core"
	"mirror/internal/corpus"
)

// cluster is an in-process distributed topology for tests: n shard
// primaries (each optionally mirrored by followers), all served over real
// 127.0.0.1 RPC listeners, fronted by a RouterEngine. Stores are
// in-memory — the drills that need kill-able processes live in
// internal/load; here the stores are reachable directly so tests can
// assert on their internal state.
type cluster struct {
	t         *testing.T
	router    *RouterEngine
	primaries []*core.Mirror
	followers [][]*core.Mirror
	primAddr  []string
	folAddr   [][]string
	stops     []func()
}

// startMember serves one shard member over a real listener.
func startMember(t *testing.T, index, count int, follower bool) (*core.Mirror, string, func()) {
	t.Helper()
	m, err := core.NewShardMember(index, count)
	if err != nil {
		t.Fatal(err)
	}
	m.KeepEpochHistory(8)
	name := "shard-member"
	if follower {
		m.SetFollower()
		name = "shard-follower"
	} else {
		m.EnableShipping()
	}
	addr, stop, err := core.ServeAs(m, "127.0.0.1:0", "", "mirror-shard", name)
	if err != nil {
		t.Fatal(err)
	}
	return m, addr, stop
}

// startCluster builds an n-shard topology with `replicas` stores per
// shard (the primary counts; replicas-1 followers each).
func startCluster(t *testing.T, n, replicas int) *cluster {
	t.Helper()
	c := &cluster{t: t}
	shards := make([][]string, n)
	for i := 0; i < n; i++ {
		m, addr, stop := startMember(t, i, n, false)
		c.primaries = append(c.primaries, m)
		c.primAddr = append(c.primAddr, addr)
		c.stops = append(c.stops, stop)
		shards[i] = []string{addr}
		var fols []*core.Mirror
		var folAddrs []string
		for f := 1; f < replicas; f++ {
			fm, faddr, fstop := startMember(t, i, n, true)
			fols = append(fols, fm)
			folAddrs = append(folAddrs, faddr)
			c.stops = append(c.stops, fstop)
			shards[i] = append(shards[i], faddr)
		}
		c.followers = append(c.followers, fols)
		c.folAddr = append(c.folAddr, folAddrs)
	}
	r, err := NewRouter(shards, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	t.Cleanup(c.shutdown)
	return c
}

func (c *cluster) shutdown() {
	c.router.ClosePersistent()
	for _, stop := range c.stops {
		stop()
	}
}

// catchUp replays every primary's shipped WAL stream into its followers.
func (c *cluster) catchUp() {
	c.t.Helper()
	for i, fols := range c.followers {
		for _, fm := range fols {
			if _, err := FollowOnce(fm, c.primAddr[i], 10*time.Second); err != nil {
				c.t.Fatalf("catch up follower of shard %d: %v", i, err)
			}
		}
	}
}

// ingest routes items through the router.
func (c *cluster) ingest(items []*corpus.Item) {
	c.t.Helper()
	for _, it := range items {
		if err := c.router.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			c.t.Fatalf("ingest %s: %v", it.URL, err)
		}
	}
}

// testItems generates the shared differential corpus.
func testItems(n int) []*corpus.Item {
	return corpus.Generate(corpus.Config{N: n, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
}

// testIndexOptions keeps pipeline runs fast (mirrors core's test fixture).
func testIndexOptions() core.IndexOptions {
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 6
	return opts
}
