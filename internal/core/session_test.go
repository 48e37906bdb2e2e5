package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mirror/internal/bat"
)

// The session exactness suite. A session round is the dual-coding
// expression with the cluster words bound as a weighted set; it must
// return, bit for bit and ties included, what the former composition
// returned: the full text ranking and the weighted content scores
// combined by #wsum with unit source weights, then ranked
// (refSessionRun).

// sessionSite is an engine that opens feedback sessions.
type sessionSite interface {
	NewSession(text string) (*Session, error)
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
		sessions := make([]*Session, len(sites))
		for i, site := range sites {
			var err error
			if sessions[i], err = site.s.NewSession(text); err != nil {
				t.Fatal(err)
			}
		}
		terms0, _ := sessions[0].ClusterWeights()
		empty = empty || len(terms0) == 0
		for round := 0; round < 3; round++ {
			terms, ws := sessions[0].ClusterWeights()
			var full []Hit
			for _, k := range []int{0, 1, 10, 100} {
				want := refSessionRun(t, ref, text, terms, ws, k)
				if k == 0 {
					full = want
				}
				for i, sess := range sessions {
					if gt, gw := sess.ClusterWeights(); !slices.Equal(gt, terms) || !slices.Equal(gw, ws) {
						t.Fatalf("%s: %q round %d: session weights %v %v, one-shot store %v %v", sites[i].name, text, round, gt, gw, terms, ws)
					}
					got, err := sess.Run(k)
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
				if err := sess.Feedback(rel, non); err != nil {
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
		sess.weights = map[string]float64{}
		for i, c := range concepts {
			sess.weights[c] = 0.5 + 3*float64(i)
		}
		if terms, _ := sess.ClusterWeights(); len(terms) == 0 || !slices.Equal(sortedCopy(terms), sortedCopy(concepts)) {
			t.Fatalf("session terms %v, dual expansion %v", terms, concepts)
		}
		run := func() ([]Hit, []Hit) {
			s, err := sess.Run(k)
			if err != nil {
				t.Fatal(err)
			}
			d, err := m.QueryDualCoding(text, k)
			if err != nil {
				t.Fatal(err)
			}
			return s, d
		}
		var s, d []Hit
		if sessionFirst {
			s, d = run()
		} else {
			d0, err := m.QueryDualCoding(text, k)
			if err != nil {
				t.Fatal(err)
			}
			s, d = run()
			if !hitsEqual(d0, d) {
				t.Fatal("the cached dual answer moved")
			}
		}
		terms, ws := sess.ClusterWeights()
		if want := refSessionRun(t, m, text, terms, ws, k); !hitsEqual(want, s) {
			t.Fatalf("session first %v: session answer %v, want %v", sessionFirst, s, want)
		}
		m.SetResultCache(0)
		want, err := m.QueryDualCoding(text, k)
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
	for _, h := range queryAnn(t, single, "harbor", 8) {
		for _, w := range single.ContentTerms(h.OID) {
			sess.weights[w] += 0.5
		}
	}
	terms, ws := sess.ClusterWeights()
	full := refSessionRun(t, single, sess.Text, terms, ws, 0)
	for _, k := range []int{1, 10, 100} {
		var rows []Hit
		floor := full[min(k, len(full))-1].Score
		for i, member := range e.shards {
			ep := member.currentEpoch()
			args := ShardQueryArgs{Kind: "dual", Text: sess.Text, Terms: terms, Weights: ws, K: k,
				Tag: ep.Tag, ThetaFloor: floor, ScanID: nextScanID()}
			var reply ShardQueryReply
			if err := (&Service{m: member}).ShardQuery(args, &reply); err != nil {
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
	sess, err := m.NewSession("harbor")
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range [][]float64{{-1}, {math.NaN()}, {math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		sess.weights = map[string]float64{}
		for i, w := range ws {
			sess.weights[fmt.Sprintf("c%03d", i)] = w
		}
		for _, k := range []int{10, 0} {
			if hits, err := sess.Run(k); err == nil {
				t.Fatalf("weights %v k=%d: %d hits, want an error", ws, k, len(hits))
			}
		}
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
	hits, err := sess.Run(10)
	if err != nil {
		b.Fatal(err)
	}
	rel, non := sessionJudgments(hits)
	if err := sess.Feedback(rel, non); err != nil {
		b.Fatal(err)
	}
	b.Run("session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Run(10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.QueryDualCoding(text, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
