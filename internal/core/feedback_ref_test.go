package core

import (
	"fmt"
	"sort"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/ir"
)

// The former evidence-combination layer, kept test-only as the reference
// the Moa expressions must reproduce bit for bit: rankings converted to
// score maps, combined by the inference network's #wsum (#sum is #wsum
// with unit weights, arithmetic included), ranked score descending, OID
// ascending on ties.

// refScores maps documents to beliefs.
type refScores map[bat.OID]float64

// refHitScores converts a full ranking into a score map.
func refHitScores(hits []Hit) refScores {
	out := make(refScores, len(hits))
	for _, h := range hits {
		out[h.OID] = h.Score
	}
	return out
}

// refCombineWSum is #wsum over the union of the children's documents: a
// document missing from a child takes that child's default.
func refCombineWSum(children []refScores, weights, defaults []float64) refScores {
	var wtot float64
	for _, w := range weights {
		wtot += w
	}
	out := refScores{}
	for _, ch := range children {
		for d := range ch {
			out[d] = 0
		}
	}
	for d := range out {
		s := 0.0
		for ci, ch := range children {
			v, ok := ch[d]
			if !ok {
				v = defaults[ci]
			}
			s += weights[ci] * v
		}
		out[d] = s / wtot
	}
	return out
}

// refRank orders a score map into hits (URLs resolved by urlOf) and cuts
// it at k (k <= 0 keeps everything).
func refRank(s refScores, k int, urlOf func(bat.OID) string) []Hit {
	hits := make([]Hit, 0, len(s))
	for d, v := range s {
		hits = append(hits, Hit{OID: d, URL: urlOf(d), Score: v})
	}
	sort.Slice(hits, func(i, j int) bool { return hitWorse(hits[j], hits[i]) })
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// refWeightedContentScores scores the epoch's image CONTREP with per-term
// weights through the exhaustive wsum_bel operator; only documents that
// match some term appear, and out-of-dictionary terms drop with their
// weights.
func refWeightedContentScores(ep *IndexEpoch, terms []string, weights []float64) (refScores, error) {
	prefix := InternalSet + "_image"
	dict, ok := ep.DB.BAT(prefix + "_dictrev")
	if !ok {
		return nil, fmt.Errorf("content index incomplete")
	}
	segs, err := ir.Segments(ep.DB, prefix)
	if err != nil {
		return nil, err
	}
	var qoids []bat.OID
	var qw []float64
	for i, t := range terms {
		if v, ok := dict.Find(t); ok {
			qoids = append(qoids, v.(bat.OID))
			qw = append(qw, weights[i])
		}
	}
	scored, err := bat.WSumBeliefs(segs, qoids, qw, ir.DefaultBelief)
	if err != nil {
		return nil, err
	}
	out := make(refScores, scored.Len())
	for i := 0; i < scored.Len(); i++ {
		out[scored.Head.OIDAt(i)] = scored.Tail.FloatAt(i)
	}
	return out, nil
}

// refSessionRun is the former session-round composition over a single
// store: the full text ranking, the weighted content scores, combined by
// #wsum with unit source weights (defaults |text|·def and Σw·def) and
// ranked.
func refSessionRun(t *testing.T, m *Mirror, text string, terms []string, ws []float64, k int) []Hit {
	t.Helper()
	textHits, err := m.QueryAnnotations(text, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wtot float64
	for _, w := range ws {
		wtot += w
	}
	cs := refScores{}
	if len(terms) > 0 {
		if cs, err = refWeightedContentScores(m.currentEpoch(), terms, ws); err != nil {
			t.Fatal(err)
		}
	}
	combined := refCombineWSum(
		[]refScores{refHitScores(textHits), cs},
		[]float64{1, 1},
		[]float64{float64(len(ir.Analyze(text))) * ir.DefaultBelief, wtot * ir.DefaultBelief},
	)
	return refRank(combined, k, m.view().URLOf)
}
