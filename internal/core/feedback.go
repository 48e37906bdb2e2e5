package core

import (
	"fmt"
	"math"
	"sort"

	"mirror/internal/bat"
	"mirror/internal/ir"
	"mirror/internal/thesaurus"
)

// Session is an interactive retrieval session with relevance feedback, the
// loop of Section 5.2: "The user may provide relevance feedback for these
// images; this relevance feedback is used to improve the current query."
//
// The session query has a text part (fixed) and a content part: weighted
// cluster words, initialised from the thesaurus and updated from feedback
// Rocchio-style (relevant items add their cluster words' weight,
// non-relevant subtract).
type Session struct {
	g         *Gather
	Text      string
	textTerms []string
	weights   map[string]float64 // cluster word → weight
	Round     int
}

// The Rocchio-style gains Feedback applies per judgment: a relevant
// item's cluster words gain feedbackGain weight, a non-relevant item's
// lose feedbackPenalty. The original text query keeps unit weight.
const (
	feedbackGain    = 0.75
	feedbackPenalty = 0.25
)

// newSession starts a session over a gather, seeding the content query
// from the thesaurus of the view it was opened on.
func newSession(g *Gather, thes *thesaurus.Thesaurus, text string) *Session {
	s := &Session{
		g: g, Text: text,
		textTerms: ir.Analyze(text),
		weights:   map[string]float64{},
	}
	for _, a := range thes.Associate(s.textTerms, 5) {
		s.weights[a.Concept] = a.Belief
	}
	return s
}

// ClusterWeights returns the current content query (sorted by weight).
func (s *Session) ClusterWeights() ([]string, []float64) {
	terms := make([]string, 0, len(s.weights))
	for t := range s.weights {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if s.weights[terms[i]] != s.weights[terms[j]] {
			return s.weights[terms[i]] > s.weights[terms[j]]
		}
		return terms[i] < terms[j]
	})
	ws := make([]float64, len(terms))
	for i, t := range terms {
		ws[i] = s.weights[t]
	}
	return terms, ws
}

// Run evaluates the current session query over one pinned view and
// returns the top k hits (k <= 0: the full ranking). The session query
// is the dual-coding expression with the cluster words bound as a
// weighted set: #wsum of the text evidence and the weighted content
// evidence, one pruned two-source scan per leg for k > 0. The result
// cache and the θ-memo key on text and terms, not on weights, so a
// session round bypasses both.
func (s *Session) Run(k int) ([]Hit, error) {
	v := s.g.view()
	if v == nil {
		return nil, ErrNotIndexed
	}
	terms, ws := s.ClusterWeights()
	l, err := gatherRows(v, ShardQueryArgs{Kind: "dual", Text: s.Text, Terms: terms, Weights: ws, K: k}, math.Inf(-1))
	if err != nil {
		return nil, err
	}
	return rowHits(v, l.rows, k), nil
}

// Feedback applies one round of relevance judgments. Each relevant item's
// cluster words gain feedbackGain weight, each non-relevant item's lose
// feedbackPenalty (a word whose weight drops to zero leaves the query); the
// thesaurus is reinforced so the adaptation persists "across query
// sessions" — and, in persistent mode, across restarts: each
// reinforcement is logged to the WAL and replayed during recovery.
// On a WAL error the batch may be partially applied; everything applied
// is already in the thesaurus (and persists at the next checkpoint), so
// do not retry the same judgments.
func (s *Session) Feedback(relevant, nonrelevant []bat.OID) error {
	if len(relevant)+len(nonrelevant) == 0 {
		return fmt.Errorf("core: feedback needs at least one judgment")
	}
	apply := func(oids []bat.OID, gain float64, rel bool) error {
		for _, oid := range oids {
			words := s.g.shards.ContentTerms(oid)
			for _, w := range words {
				s.weights[w] += gain
				if s.weights[w] <= 0 {
					delete(s.weights, w)
				}
			}
			// Under the write lock: reinforcement + WAL append stay
			// atomic with any concurrent Checkpoint.
			if err := s.g.shards.ReinforceLogged(s.textTerms, words, rel); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(relevant, feedbackGain, true); err != nil {
		return err
	}
	if err := apply(nonrelevant, -feedbackPenalty, false); err != nil {
		return err
	}
	s.Round++
	return nil
}

// PrecisionAtK is the evaluation helper used by E9: the fraction of the
// top-k hits for which relevant() is true.
func PrecisionAtK(hits []Hit, k int, relevant func(Hit) bool) float64 {
	if k > len(hits) {
		k = len(hits)
	}
	if k == 0 {
		return 0
	}
	n := 0
	for _, h := range hits[:k] {
		if relevant(h) {
			n++
		}
	}
	return float64(n) / float64(k)
}

// MeanReciprocalRank is the evaluation helper used by E8.
func MeanReciprocalRank(rankings [][]Hit, relevant func(Hit) bool) float64 {
	if len(rankings) == 0 {
		return 0
	}
	var sum float64
	for _, hits := range rankings {
		for i, h := range hits {
			if relevant(h) {
				sum += 1 / float64(i+1)
				break
			}
		}
	}
	return sum / float64(len(rankings))
}
