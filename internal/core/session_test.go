package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"mirror/internal/bat"
)

// The session exactness suite. A session round is the dual-coding
// expression with the cluster words bound as a weighted set; it must
// return, bit for bit and ties included, what the former composition
// returned: the full text ranking and the weighted content scores
// combined by #wsum with unit source weights, then ranked
// (refSessionRun).

// sessionSite is an engine that runs feedback sessions.
type sessionSite interface {
	ranker
	NewSession(text string) (Session, error)
	SessionFeedback(s Session, relevant, nonrelevant []bat.OID) (Session, error)
}

// sessionWeights is a session's concepts as concept → weight.
func sessionWeights(t testing.TB, s Session) map[string]float64 {
	t.Helper()
	w, err := conceptWeights(s.Concepts, s.Weights)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// withWeight returns s with concept c at weight w.
func withWeight(t testing.TB, s Session, c string, w float64) Session {
	t.Helper()
	weights := sessionWeights(t, s)
	weights[c] = w
	return sessionOf(s.Text, weights, s.Round)
}

// sessionJudgments picks one round's judgments from a ranking: its top
// two hits relevant, the two after the fifth non-relevant.
func sessionJudgments(hits []Hit) (rel, non []bat.OID) {
	for i, h := range hits {
		switch {
		case i < 2:
			rel = append(rel, h.OID)
		case i >= 5 && i < 7:
			non = append(non, h.OID)
		}
	}
	return rel, non
}

// TestSessionRunMatchesWSumComposition runs three feedback rounds per
// probe text on a single one-shot store, a multi-segment store (with
// misaligned CONTREP segment lists) and the sharded engine at N ∈ {1, 2,
// 8}, at k ∈ {1, 10, 100, 0}. Every engine's session is judged with the
// same OIDs and must hold the same weights as the one-shot store's; every
// round must equal the reference composition over the one-shot store.
// The probes include texts whose sessions start with an empty expansion.
func TestSessionRunMatchesWSumComposition(t *testing.T) {
	urls, anns := refreshCorpus(400, 5)
	ref := oneShotStub(t, urls, anns)
	multi := buildStubIncremental(t, urls, anns, 12)
	misaligned := buildStubIncremental(t, urls, anns, 12)
	misalignSegments(t, misaligned)
	sites := []struct {
		name string
		s    sessionSite
	}{
		{"one-shot store", ref},
		{"multi-segment store", multi},
		{"misaligned segments", misaligned},
	}
	for _, n := range []int{1, 2, 8} {
		sites = append(sites, struct {
			name string
			s    sessionSite
		}{fmt.Sprintf("%d shards", n), buildShardedIncremental(t, n, urls, anns, 100, int64(30+n))})
	}
	// The all-OOV probe runs first: later rounds reinforce the thesaurus
	// with their texts' terms, "zeppelin" among them.
	empty := false
	for _, text := range append([]string{"quux zeppelin"}, dualTexts()...) {
		sessions := make([]Session, len(sites))
		for i, site := range sites {
			var err error
			if sessions[i], err = site.s.NewSession(text); err != nil {
				t.Fatal(err)
			}
		}
		empty = empty || len(sessions[0].Concepts) == 0
		for round := 0; round < 3; round++ {
			terms, ws := sessions[0].Concepts, sessions[0].Weights
			var full []Hit
			for _, k := range []int{0, 1, 10, 100} {
				want := refSessionRun(t, ref, text, terms, ws, k)
				if k == 0 {
					full = want
				}
				for i, sess := range sessions {
					if !slices.Equal(sess.Concepts, terms) || !slices.Equal(sess.Weights, ws) {
						t.Fatalf("%s: %q round %d: session weights %v %v, one-shot store %v %v", sites[i].name, text, round, sess.Concepts, sess.Weights, terms, ws)
					}
					got, err := rank(sites[i].s, sess.Query(k))
					if err != nil {
						t.Fatalf("%s: %q round %d k=%d: %v", sites[i].name, text, round, k, err)
					}
					if !hitsEqual(want, got) {
						t.Fatalf("%s: %q round %d k=%d: Run diverges from the #wsum composition:\n  want %v\n  got  %v",
							sites[i].name, text, round, k, want, got)
					}
				}
			}
			rel, non := sessionJudgments(full)
			for i, sess := range sessions {
				var err error
				if sessions[i], err = sites[i].s.SessionFeedback(sess, rel, non); err != nil {
					t.Fatalf("%s: %v", sites[i].name, err)
				}
			}
		}
	}
	if !empty {
		t.Fatal("no probe started from an empty expansion")
	}
}

// TestSessionDoesNotShareDualCache: a session whose weighted concepts are
// exactly a text's dual expansion asks the same (kind, text, terms) as
// QueryDualCoding, but a different query. On a cached engine neither may
// be served the other's answer, in either order.
func TestSessionDoesNotShareDualCache(t *testing.T) {
	urls, anns := refreshCorpus(200, 5)
	const text, k = "harbor gull", 10
	for _, sessionFirst := range []bool{false, true} {
		m := oneShotStub(t, urls, anns)
		m.SetResultCache(1 << 20)
		sess, err := m.NewSession(text)
		if err != nil {
			t.Fatal(err)
		}
		concepts := m.ExpandQuery(text, dualConcepts)
		weights := map[string]float64{}
		for i, c := range concepts {
			weights[c] = 0.5 + 3*float64(i)
		}
		sess = sessionOf(sess.Text, weights, sess.Round)
		if terms := sess.Concepts; len(terms) == 0 || !slices.Equal(sortedCopy(terms), sortedCopy(concepts)) {
			t.Fatalf("session terms %v, dual expansion %v", terms, concepts)
		}
		run := func() ([]Hit, []Hit) {
			s, err := rank(m, sess.Query(k))
			if err != nil {
				t.Fatal(err)
			}
			d, err := rank(m, Query{Stmt: StmtDual, Text: text, K: k})
			if err != nil {
				t.Fatal(err)
			}
			return s, d
		}
		var s, d []Hit
		if sessionFirst {
			s, d = run()
		} else {
			d0, err := rank(m, Query{Stmt: StmtDual, Text: text, K: k})
			if err != nil {
				t.Fatal(err)
			}
			s, d = run()
			if !hitsEqual(d0, d) {
				t.Fatal("the cached dual answer moved")
			}
		}
		if want := refSessionRun(t, m, text, sess.Concepts, sess.Weights, k); !hitsEqual(want, s) {
			t.Fatalf("session first %v: session answer %v, want %v", sessionFirst, s, want)
		}
		m.SetResultCache(0)
		want, err := rank(m, Query{Stmt: StmtDual, Text: text, K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(want, d) {
			t.Fatalf("session first %v: dual answer %v, cache-off %v", sessionFirst, d, want)
		}
		if hitsEqual(s, d) {
			t.Fatalf("session first %v: session and dual coding agree; the probe tests nothing", sessionFirst)
		}
	}
}

func sortedCopy(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// TestSessionShardLegBounded: the leg a router ships for a session round
// is the shard's weighted dual leg, served by Service.ShardQuery under a
// streamed threshold: ScanID registered, and the floor at the global
// k-th best score, the highest a router ever streams. It returns at most
// k rows — the former wsum leg shipped every matching document — and the
// router's merge of them is the single store's ranking.
func TestSessionShardLegBounded(t *testing.T) {
	urls, anns := refreshCorpus(300, 5)
	single := oneShotStub(t, urls, anns)
	e := buildShardedIncremental(t, 2, urls, anns, 100, 32)
	sess, err := single.NewSession("harbor gull tide")
	if err != nil {
		t.Fatal(err)
	}
	weights := sessionWeights(t, sess)
	for _, h := range queryAnn(t, single, "harbor", 8) {
		for _, w := range single.ContentTerms(h.OID) {
			weights[w] += 0.5
		}
	}
	sess = sessionOf(sess.Text, weights, sess.Round)
	terms, ws := sess.Concepts, sess.Weights
	full := refSessionRun(t, single, sess.Text, terms, ws, 0)
	for _, k := range []int{1, 10, 100} {
		var rows []Hit
		floor := full[min(k, len(full))-1].Score
		for i, member := range e.shards {
			ep := member.currentEpoch()
			args := sess.Query(k).leg(nil)
			args.Tag, args.ThetaFloor, args.ScanID = ep.Tag, floor, nextScanID()
			var reply ShardQueryReply
			if err := (&Service{m: member}).ShardQuery(&args, &reply); err != nil {
				t.Fatal(err)
			}
			if len(reply.OIDs) > k {
				t.Fatalf("shard %d k=%d: the session leg shipped %d of %d documents", i, k, len(reply.OIDs), ep.Docs)
			}
			for j, oid := range reply.OIDs {
				rows = append(rows, Hit{OID: bat.OID(oid), URL: single.view().URLOf(bat.OID(oid)), Score: reply.Scores[j]})
			}
		}
		merged := refRank(refHitScores(rows), k, single.view().URLOf)
		if want := full[:min(k, len(full))]; !hitsEqual(want, merged) {
			t.Fatalf("k=%d: merged shard legs %v, single store %v", k, merged, want)
		}
	}
}

// TestSessionRunRejectsBadWeights: weights that are negative, NaN or
// sum to +Inf fail the round with an error, never a ranking.
func TestSessionRunRejectsBadWeights(t *testing.T) {
	urls, anns := refreshCorpus(40, 5)
	m := oneShotStub(t, urls, anns)
	for _, ws := range [][]float64{{-1}, {math.NaN()}, {math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		sess := Session{Text: "harbor", Weights: ws}
		for i := range ws {
			sess.Concepts = append(sess.Concepts, fmt.Sprintf("c%03d", i))
		}
		for _, k := range []int{10, 0} {
			if hits, err := rank(m, sess.Query(k)); err == nil {
				t.Fatalf("weights %v k=%d: %d hits, want an error", ws, k, len(hits))
			}
		}
		if _, err := m.SessionFeedback(sess, []bat.OID{0}, nil); err == nil {
			t.Fatalf("weights %v: feedback accepted them", ws)
		}
	}
}

// TestSessionStateIsCanonicalAndValidated: the engine ranks a session's
// concepts in any order exactly like the canonical order, refuses
// duplicate concepts and mismatched lengths, and never
// writes to the caller's slices — checked under -race by rounds and
// feedback running concurrently on one shared state.
func TestSessionStateIsCanonicalAndValidated(t *testing.T) {
	urls, anns := refreshCorpus(200, 5)
	m := oneShotStub(t, urls, anns)
	sess, err := m.NewSession("harbor gull")
	if err != nil {
		t.Fatal(err)
	}
	weights := sessionWeights(t, sess)
	for i, h := range queryAnn(t, m, "harbor", 6) {
		for _, w := range m.ContentTerms(h.OID) {
			weights[w] += 0.25 * float64(i%3)
		}
	}
	sess = sessionOf(sess.Text, weights, 0)
	if len(sess.Concepts) < 3 {
		t.Fatalf("session concepts %v: too few to reorder", sess.Concepts)
	}
	reordered := Session{Text: sess.Text, Concepts: slices.Clone(sess.Concepts), Weights: slices.Clone(sess.Weights)}
	slices.Reverse(reordered.Concepts)
	slices.Reverse(reordered.Weights)
	for _, k := range []int{0, 1, 10, 100} {
		want, err := rank(m, sess.Query(k))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := rank(m, reordered.Query(k)); err != nil || !hitsEqual(want, got) {
			t.Fatalf("k=%d: reordered state ranks %v (err %v), canonical %v", k, got, err, want)
		}
	}

	for name, bad := range map[string]Session{
		"duplicate concept": {Text: "harbor", Concepts: []string{"c000", "c001", "c000"}, Weights: []float64{1, 2, 3}},
		"more weights":      {Text: "harbor", Concepts: []string{"c000"}, Weights: []float64{1, 2}},
		"fewer weights":     {Text: "harbor", Concepts: []string{"c000", "c001"}, Weights: []float64{1}},
	} {
		if hits, err := rank(m, bad.Query(10)); err == nil {
			t.Fatalf("%s: SessionRun returned %d hits, want an error", name, len(hits))
		}
		if _, err := m.SessionFeedback(bad, []bat.OID{0}, nil); err == nil {
			t.Fatalf("%s: SessionFeedback accepted it", name)
		}
	}

	concepts, ws := slices.Clone(reordered.Concepts), slices.Clone(reordered.Weights)
	hits, err := rank(m, reordered.Query(10))
	if err != nil || len(hits) == 0 {
		t.Fatalf("round: %d hits, err %v", len(hits), err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := rank(m, reordered.Query(10)); err != nil {
					t.Error(err)
				}
			} else if next, err := m.SessionFeedback(reordered, []bat.OID{hits[0].OID}, nil); err != nil || next.Round != 1 {
				t.Errorf("feedback: round %d, err %v", next.Round, err)
			}
		}(i)
	}
	wg.Wait()
	if !slices.Equal(reordered.Concepts, concepts) || !slices.Equal(reordered.Weights, ws) || reordered.Round != 0 {
		t.Fatalf("the caller's state moved: %+v, was %v %v", reordered, concepts, ws)
	}
}

// BenchmarkSessionRound pairs one session round with the dual-coding
// query of the same text on one 2 000-document store, caches off and the
// θ-memo off, after one feedback round.
func BenchmarkSessionRound(b *testing.B) {
	urls, anns := refreshCorpus(2000, 5)
	m, err := New()
	if err != nil {
		b.Fatal(err)
	}
	for i := range urls {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.buildIndex(DefaultIndexOptions(), stubPipeline{}); err != nil {
		b.Fatal(err)
	}
	m.SetThetaMemo(0)
	const text = "harbor gull tide"
	sess, err := m.NewSession(text)
	if err != nil {
		b.Fatal(err)
	}
	hits, err := rank(m, sess.Query(10))
	if err != nil {
		b.Fatal(err)
	}
	rel, non := sessionJudgments(hits)
	if sess, err = m.SessionFeedback(sess, rel, non); err != nil {
		b.Fatal(err)
	}
	b.Run("session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rank(m, sess.Query(10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rank(m, Query{Stmt: StmtDual, Text: text, K: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSessionAndDualKeepTheirPlans: a feedback round and a plain
// dual-coding query run one Moa source whose `concepts` differ in slot
// type (a weighted set vs a plain one). The epoch's plan cache keeps a
// plan for each, so once both are warm, alternating them compiles
// nothing.
func TestSessionAndDualKeepTheirPlans(t *testing.T) {
	urls, anns := refreshCorpus(200, 5)
	m := oneShotStub(t, urls, anns)
	const text, k = "harbor gull", 10
	sess, err := m.NewSession(text)
	if err != nil {
		t.Fatal(err)
	}
	forms := []Query{{Stmt: StmtDual, Text: text, K: k}, sess.Query(k)}
	for _, q := range forms {
		if _, err := rank(m, q); err != nil {
			t.Fatal(err)
		}
	}
	eng := m.currentEpoch().Eng
	_, before := eng.PlanCacheStats()
	for i := 0; i < 100; i++ {
		for _, q := range forms {
			if _, err := rank(m, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, after := eng.PlanCacheStats(); after != before {
		t.Fatalf("100 alternations of a session round and a dual query compiled %d plans, want 0", after-before)
	}
}
