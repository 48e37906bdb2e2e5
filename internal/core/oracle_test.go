package core

import (
	"runtime"
	"strings"
	"testing"
)

// oracleWire converts local hits to the wire shape VerifyHits consumes.
func oracleWire(hits []Hit) []WireHit {
	out := make([]WireHit, len(hits))
	for i, h := range hits {
		out[i] = WireHit{OID: uint64(h.OID), URL: h.URL, Score: h.Score}
	}
	return out
}

// oracleFor seeds an oracle with the corpus prefix order.
func oracleFor(urls, anns []string) *Oracle {
	o := NewOracle()
	for i := range urls {
		o.AddDoc(urls[i], anns[i])
	}
	return o
}

// The oracle's trivial stand-in pipeline must not matter: a store built
// with the stub IMAGE pipeline answers annotation queries bit-identically
// to the oracle's reference build, full ranking and cut.
func TestOracleMatchesStubPipelineStore(t *testing.T) {
	urls, anns := refreshCorpus(60, 1)
	m := oneShotStub(t, urls, anns)
	o := oracleFor(urls, anns)
	for _, q := range []string{"harbor", "harbor gull", "tide pier salt", "nosuchword"} {
		for _, k := range []int{0, 5, 10} {
			hits, st, err := m.QueryAnnotationsStamped(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.Docs != len(urls) || st.Seq == 0 {
				t.Fatalf("stamp = %+v, want Docs=%d and a nonzero Seq", st, len(urls))
			}
			if err := o.VerifyHits(st.Docs, q, k, oracleWire(hits)); err != nil {
				t.Fatalf("q=%q k=%d: %v", q, k, err)
			}
		}
	}
}

// Incremental epochs: every publish's stamped prefix must verify against
// the oracle, and the stamp must advance with each refresh.
func TestOracleVerifiesIncrementalEpochs(t *testing.T) {
	urls, anns := refreshCorpus(80, 2)
	m := oneShotStub(t, urls[:30], anns[:30])
	o := oracleFor(urls, anns)
	lastSeq := int64(0)
	for next := 30; next < len(urls); next += 17 {
		hi := next + 17
		if hi > len(urls) {
			hi = len(urls)
		}
		for i := next; i < hi; i++ {
			if err := m.AddImage(urls[i], anns[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		refreshStub(t, m)
		hits, st, err := m.QueryAnnotationsStamped("harbor gull", 8)
		if err != nil {
			t.Fatal(err)
		}
		if st.Docs != hi {
			t.Fatalf("stamped Docs = %d after refreshing to %d", st.Docs, hi)
		}
		if st.Seq <= lastSeq {
			t.Fatalf("epoch seq %d did not advance past %d", st.Seq, lastSeq)
		}
		lastSeq = st.Seq
		if err := o.VerifyHits(st.Docs, "harbor gull", 8, oracleWire(hits)); err != nil {
			t.Fatal(err)
		}
	}
}

// Sharded scatter-gather answers (global OIDs, shard-local scoring) must
// verify against the same single-store oracle.
func TestOracleVerifiesShardedEngine(t *testing.T) {
	urls, anns := refreshCorpus(60, 3)
	e, err := NewSharded(3)
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
	o := oracleFor(urls, anns)
	for _, q := range []string{"harbor", "tide pier anchor"} {
		hits, st, err := e.QueryAnnotationsStamped(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if st.Docs != len(urls) {
			t.Fatalf("stamped Docs = %d, want %d", st.Docs, len(urls))
		}
		if err := o.VerifyHits(st.Docs, q, 10, oracleWire(hits)); err != nil {
			t.Fatalf("q=%q: %v", q, err)
		}
	}
}

// On a store large enough that the exhaustive reference folds over 8 192
// belief BUNs, pruned k = 10 replies to 3–6-term queries must verify
// against the oracle's k = 0 ranking bit for bit; GOMAXPROCS=4 would make
// a partitioned fold fan out even on a 1-CPU machine.
func TestOracleAcceptsPrunedRepliesOnLargeStore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	urls, anns := refreshCorpus(largeRoundDocs, 99)
	m := oneShotStub(t, urls, anns)
	o := oracleFor(urls, anns)
	for _, q := range largeRoundQueries() {
		hits, st, err := m.QueryAnnotationsStamped(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.VerifyHits(st.Docs, q, 10, oracleWire(hits)); err != nil {
			t.Fatalf("q=%q: %v", q, err)
		}
	}
}

// The verifier must actually catch lies: wrong scores, wrong documents,
// wrong lengths and unknown prefixes all fail.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	urls, anns := refreshCorpus(40, 4)
	m := oneShotStub(t, urls, anns)
	o := oracleFor(urls, anns)
	hits, st, err := m.QueryAnnotationsStamped("harbor gull", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("test query matched nothing; corpus seed needs adjusting")
	}
	ok := oracleWire(hits)
	if err := o.VerifyHits(st.Docs, "harbor gull", 6, ok); err != nil {
		t.Fatal(err)
	}

	bad := append([]WireHit(nil), ok...)
	bad[0].Score *= 1.0000001
	if err := o.VerifyHits(st.Docs, "harbor gull", 6, bad); err == nil {
		t.Fatal("perturbed score passed verification")
	} else if !strings.Contains(err.Error(), "score") {
		t.Fatalf("unexpected error: %v", err)
	}

	bad = append([]WireHit(nil), ok...)
	bad[len(bad)-1].URL = "img://not-in-collection"
	if err := o.VerifyHits(st.Docs, "harbor gull", 6, bad); err == nil {
		t.Fatal("foreign URL passed verification")
	}

	if err := o.VerifyHits(st.Docs, "harbor gull", 6, ok[:len(ok)-1]); err == nil {
		t.Fatal("truncated ranking passed verification")
	}

	if err := o.VerifyHits(len(urls)+1, "harbor gull", 6, ok); err == nil {
		t.Fatal("prefix beyond the oracle's ingest order passed verification")
	}
}

// A stale-but-published prefix is legal (that is the soak invariant): a
// query answered by the epoch BEFORE the latest refresh still verifies,
// under the stamp it was actually served from.
func TestOracleAcceptsStalePublishedPrefix(t *testing.T) {
	urls, anns := refreshCorpus(50, 5)
	m := oneShotStub(t, urls[:35], anns[:35])
	o := oracleFor(urls, anns)
	hits, st, err := m.QueryAnnotationsStamped("harbor gull", 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 35; i < len(urls); i++ {
		if err := m.AddImage(urls[i], anns[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	refreshStub(t, m)
	// The old answer with its old stamp still verifies; the same answer
	// claimed against the new prefix generally must not.
	if err := o.VerifyHits(st.Docs, "harbor gull", 7, oracleWire(hits)); err != nil {
		t.Fatalf("stale published prefix rejected: %v", err)
	}
	cur, stNew, err := m.QueryAnnotationsStamped("harbor gull", 7)
	if err != nil {
		t.Fatal(err)
	}
	if stNew.Docs != len(urls) {
		t.Fatalf("stamped Docs = %d, want %d", stNew.Docs, len(urls))
	}
	if err := o.VerifyHits(stNew.Docs, "harbor gull", 7, oracleWire(cur)); err != nil {
		t.Fatal(err)
	}
}
