package core

import (
	"path/filepath"
	"slices"
	"testing"
)

// sameSession reports whether two session states are equal, bit for bit.
func sameSession(a, b Session) bool {
	return a.Text == b.Text && a.Round == b.Round &&
		slices.Equal(a.Concepts, b.Concepts) && slices.Equal(a.Weights, b.Weights)
}

// TestSessionSurvivesRestart: a client holds its feedback session across
// a restart of the served store — closed, reopened from its checkpoint
// and WAL, and served again — for a single store and a sharded one. Each
// round ranks exactly like an uninterrupted twin store judged the same
// way, and a session seeded after the restart equals the twin's, so the
// thesaurus reinforcement came back from the WAL.
func TestSessionSurvivesRestart(t *testing.T) {
	for _, tc := range []struct {
		name, fixture string
		open          func(dir string) (Retriever, error)
	}{
		{"single store", v3Fixture, func(dir string) (Retriever, error) {
			m, _, err := OpenPersistent(PersistOptions{Dir: dir})
			return m, err
		}},
		{"sharded", v3ShardedFixture, func(dir string) (Retriever, error) {
			e, _, err := OpenShardedPersistent(ShardedPersistOptions{Dir: dir})
			return e, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(dir string) (*Client, func()) {
				t.Helper()
				r, err := tc.open(dir)
				if err != nil {
					t.Fatal(err)
				}
				addr, stop, err := Serve(r, "127.0.0.1:0", "")
				if err != nil {
					t.Fatal(err)
				}
				c, err := DialMirror(addr)
				if err != nil {
					t.Fatal(err)
				}
				return c, func() {
					c.Close()
					stop()
					if err := r.ClosePersistent(); err != nil {
						t.Error(err)
					}
				}
			}
			dir, twinDir := filepath.Join(t.TempDir(), "store"), filepath.Join(t.TempDir(), "twin")
			copyTree(t, tc.fixture, dir)
			copyTree(t, tc.fixture, twinDir)
			c, stop := serve(dir)
			twinC, stopTwin := serve(twinDir)
			defer stopTwin()

			const text = "forest"
			sess, err := c.NewSession(text)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := twinC.NewSession(text)
			if err != nil || !sameSession(sess, twin) {
				t.Fatalf("seeded %+v, twin %+v (err %v)", sess, twin, err)
			}
			seed := sess
			round := func(n int) {
				var full []WireHit
				for _, k := range []int{0, 1, 10} {
					reply, err := c.Run(sess.Query(k))
					if err != nil {
						t.Fatalf("round %d k=%d: %v", n, k, err)
					}
					got := reply.Hits
					twinReply, err := twinC.Run(twin.Query(k))
					if err != nil {
						t.Fatal(err)
					}
					want := twinReply.Hits
					if !slices.Equal(got, want) {
						t.Fatalf("round %d k=%d: resumed session ranks %v, twin %v", n, k, got, want)
					}
					if k == 0 {
						full = got
					}
				}
				if len(full) < 2 {
					t.Fatalf("round %d: %d hits, too few to judge", n, len(full))
				}
				rel, non := []uint64{full[0].OID}, []uint64{full[len(full)-1].OID}
				if sess, err = c.SessionFeedback(sess, rel, non); err != nil {
					t.Fatal(err)
				}
				if twin, err = twinC.SessionFeedback(twin, rel, non); err != nil {
					t.Fatal(err)
				}
				if !sameSession(sess, twin) {
					t.Fatalf("round %d: session %+v, twin %+v", n, sess, twin)
				}
			}
			round(0)
			stop()
			c, stop = serve(dir)
			defer func() { stop() }()
			round(1)

			reseeded, err := c.NewSession(text)
			if err != nil {
				t.Fatal(err)
			}
			twinSeed, err := twinC.NewSession(text)
			if err != nil || !sameSession(reseeded, twinSeed) {
				t.Fatalf("seeded after the restart %+v, twin %+v (err %v)", reseeded, twinSeed, err)
			}
			if sameSession(reseeded, seed) {
				t.Fatalf("feedback left the seed %+v unchanged; the probe tests nothing", seed)
			}
		})
	}
}
