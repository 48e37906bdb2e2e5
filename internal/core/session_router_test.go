package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/dist"
)

// routerFixture is one corpus indexed twice: by a single store and by a
// router over n served shard primaries.
type routerFixture struct {
	single *core.Mirror
	router *dist.RouterEngine
	items  []*corpus.Item
}

func newRouterFixture(t *testing.T, nItems, nShards int) *routerFixture {
	t.Helper()
	items := corpus.Generate(corpus.Config{N: nItems, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})
	opts := core.DefaultIndexOptions()
	opts.Features = []string{"rgb_coarse", "gabor"}
	opts.KMax = 6
	single, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]string, nShards)
	for i := range shards {
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
		shards[i] = []string{addr}
	}
	router, err := dist.NewRouter(shards, dist.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.ClosePersistent() })
	for _, it := range items {
		for _, r := range []core.Retriever{single, router} {
			if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range []core.Retriever{single, router} {
		if err := r.BuildContentIndex(opts); err != nil {
			t.Fatal(err)
		}
	}
	return &routerFixture{single: single, router: router, items: items}
}

func sameHits(a, b []core.Hit) bool {
	return slices.Equal(a, b)
}

// TestRouterSessionMatchesWSumComposition: a session over a router runs
// each round as one weighted dual leg per shard, bounded by k and
// pruned under the router's streamed threshold. Over three feedback
// rounds and k ∈ {0, 1, 10, 100} it returns, bit for bit, the former
// composition over a single store holding the same documents, and
// carries the same weights as that store's own session.
func TestRouterSessionMatchesWSumComposition(t *testing.T) {
	fx := newRouterFixture(t, 40, 2)
	weighted := false
	for class := 0; class < 3; class++ {
		text := corpus.CanonicalTerm(class)
		rs, err := fx.router.NewSession(text)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := fx.single.NewSession(text)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			terms, ws := rs.Concepts, rs.Weights
			weighted = weighted || len(terms) > 0
			if !slices.Equal(ss.Concepts, terms) || !slices.Equal(ss.Weights, ws) {
				t.Fatalf("%q round %d: router weights %v %v, single store %v %v", text, round, terms, ws, ss.Concepts, ss.Weights)
			}
			var full []core.Hit
			for _, k := range []int{0, 1, 10, 100} {
				want := core.RefSessionRun(t, fx.single, text, terms, ws, k)
				got, _, err := fx.router.Run(rs.Query(k))
				if err != nil {
					t.Fatal(err)
				}
				if !sameHits(want, got) {
					t.Fatalf("%q round %d k=%d: router session diverges from the #wsum composition:\n  want %v\n  got  %v", text, round, k, want, got)
				}
				if k == 0 {
					full = got
				}
			}
			var rel, non []bat.OID
			for i, h := range full {
				if i < 2 {
					rel = append(rel, h.OID)
				} else if i >= 5 && i < 7 {
					non = append(non, h.OID)
				}
			}
			if rs, err = fx.router.SessionFeedback(rs, rel, non); err != nil {
				t.Fatal(err)
			}
			if ss, err = fx.single.SessionFeedback(ss, rel, non); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !weighted {
		t.Fatal("no session round carried a weighted content query; the probe tests nothing")
	}
}

// TestHugeKOverRPC: a client's K reaches the scan unchanged, so a K far
// beyond the collection must answer with the collection — not size a
// result buffer by K. Every ranked statement over the ranked RPC — a
// session round included — and MoaQuery, against a served single store
// and a served router.
func TestHugeKOverRPC(t *testing.T) {
	const k = 1 << 40
	fx := newRouterFixture(t, 24, 2)
	n := len(fx.items)
	for _, tc := range []struct {
		name string
		r    core.Retriever
	}{{"single store", fx.single}, {"router", fx.router}} {
		addr, stop, err := core.Serve(tc.r, "127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.DialMirror(addr)
		if err != nil {
			stop()
			t.Fatal(err)
		}
		text := corpus.CanonicalTerm(0)
		for _, dual := range []bool{false, true} {
			hits, err := c.TextQuery(text, k, dual)
			if err != nil || len(hits) == 0 || len(hits) > n {
				t.Fatalf("%s: TextQuery(dual=%v, K=%d): %d hits, err %v; want 1..%d", tc.name, dual, k, len(hits), err, n)
			}
		}
		content, err := c.Run(core.Query{Stmt: core.StmtContent, Terms: tc.r.ExpandQuery(text, 3), K: k})
		if err != nil || len(content.Hits) == 0 || len(content.Hits) > n {
			t.Fatalf("%s: content Run(K=%d): %d hits, err %v; want 1..%d", tc.name, k, len(content.Hits), err, n)
		}
		moa, err := c.MoaQueryTopK(`map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](ImageLibraryInternal));`, []string{text}, k)
		if err != nil || len(moa.OIDs) == 0 || len(moa.OIDs) > n {
			t.Fatalf("%s: MoaQueryTopK(K=%d): %v rows, err %v; want 1..%d", tc.name, k, moa, err, n)
		}
		sess, err := c.NewSession(text)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			reply, err := c.Run(sess.Query(k))
			if err != nil || len(reply.Hits) == 0 || len(reply.Hits) > n {
				t.Fatalf("%s: session Run(K=%d) round %d: %d hits, err %v; want 1..%d hits", tc.name, k, round, len(reply.Hits), err, n)
			}
			if sess, err = c.SessionFeedback(sess, []uint64{reply.Hits[0].OID}, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		stop()
	}
}
