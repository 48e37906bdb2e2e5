package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mirror/internal/corpus"
)

// The load-harness RPC surface: stamped replies, live ingest, stats and
// server-side feedback sessions, end to end over a real connection.
func TestServeLoadHarnessSurface(t *testing.T) {
	m, items := buildDemo(t, 12)
	addr, stop, err := m.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	class := mostAnnotatedClass(items)
	term := corpus.CanonicalTerm(class)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 12 || !st.Indexed || !st.Current || st.Epoch == 0 || st.EpochDocs != 12 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}

	reply, err := c.TextQueryStamped(term, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) == 0 || reply.Epoch != st.Epoch || reply.EpochDocs != 12 {
		t.Fatalf("stamped reply = %+v", reply)
	}
	moa, err := c.MoaQueryTopK(annotationQuery, []string{term}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if moa.Epoch != st.Epoch || moa.EpochDocs != 12 {
		t.Fatalf("moa stamp = %d/%d, want %d/12", moa.Epoch, moa.EpochDocs, st.Epoch)
	}

	// Live ingest over the wire: new doc is pending until a Refresh
	// publishes a new epoch, then queries carry the new stamp.
	extra := corpus.Generate(corpus.Config{N: 14, W: 48, H: 48, Seed: 11, AnnotateRate: 0.75})[12:]
	for _, it := range extra {
		var ppm bytes.Buffer
		if err := it.Scene.Img.EncodePPM(&ppm); err != nil {
			t.Fatal(err)
		}
		ar, err := c.AddImage(it.URL, it.Annotation, ppm.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ar.Size == 0 || ar.Pending == 0 {
			t.Fatalf("add reply = %+v", ar)
		}
	}
	if st, err = c.Stats(); err != nil || st.Pending != 2 || st.Current {
		t.Fatalf("stats after ingest = %+v, %v", st, err)
	}
	// Duplicate ingest must fail loudly (harness retry logic keys on it).
	var ppm bytes.Buffer
	if err := extra[0].Scene.Img.EncodePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddImage(extra[0].URL, "dup", ppm.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "already in library") {
		t.Fatalf("duplicate AddImage error = %v", err)
	}
	if _, err := c.AddImage("http://x/bad.ppm", "junk", []byte("not a ppm")); err == nil {
		t.Fatal("garbage PPM must be rejected")
	}

	rr, err := c.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rr.NewDocs != 2 || rr.Docs != 14 {
		t.Fatalf("refresh reply = %+v", rr)
	}
	reply2, err := c.TextQueryStamped(term, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if reply2.Epoch <= reply.Epoch || reply2.EpochDocs != 14 {
		t.Fatalf("post-refresh stamp = %d/%d (was %d/12)", reply2.Epoch, reply2.EpochDocs, reply.Epoch)
	}

	// Feedback sessions: the client holds the state.
	sess, err := c.NewSession(term)
	if err != nil {
		t.Fatal(err)
	}
	reply3, err := c.Run(sess.Query(5))
	run := reply3.Hits
	if err != nil || len(run) == 0 || sess.Round != 0 {
		t.Fatalf("session run = %+v, %v", run, err)
	}
	next, err := c.SessionFeedback(sess, []uint64{run[0].OID}, nil)
	if err != nil || next.Round != 1 || sess.Round != 0 {
		t.Fatalf("feedback = %+v, %v", next, err)
	}
	if _, err := c.Run(next.Query(5)); err != nil {
		t.Fatalf("post-feedback run: %v", err)
	}
	if _, err := c.SessionFeedback(next, nil, nil); err == nil {
		t.Fatal("feedback without judgments must fail")
	}
}

// TestClientRetypesEveryCall: every Client call re-types a recognised
// server failure, so a write against a served follower reaches the
// remote caller as ErrFollower, like the in-process call.
func TestClientRetypesEveryCall(t *testing.T) {
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m.SetFollower()
	addr, stop, err := m.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := DialMirror(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	it := corpus.Generate(corpus.Config{N: 1, W: 48, H: 48, Seed: 11})[0]
	var ppm bytes.Buffer
	if err := it.Scene.Img.EncodePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddImage(it.URL, it.Annotation, ppm.Bytes()); !errors.Is(err, ErrFollower) {
		t.Fatalf("AddImage on a served follower: %v, want ErrFollower", err)
	}
}
