package core

import (
	"fmt"
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

	// Rocchio-style gains: Alpha scales the original text query's
	// evidence when Run combines it with the weighted content evidence;
	// Beta/Gamma are the per-judgment feedback gains Feedback applies.
	Alpha, Beta, Gamma float64
}

// newSession starts a session over a gather, seeding the content query
// from the thesaurus of the view it was opened on.
func newSession(g *Gather, thes *thesaurus.Thesaurus, text string) *Session {
	s := &Session{
		g: g, Text: text,
		textTerms: ir.Analyze(text),
		weights:   map[string]float64{},
		Alpha:     1, Beta: 0.75, Gamma: 0.25,
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
// returns the top k hits: text evidence plus weighted content evidence
// combined with #wsum, the text term weighted by the session's Rocchio
// Alpha gain (Alpha = 1, the default, reduces to the unweighted #sum
// exactly). Every borrowed Scores map is released on every path,
// including error returns (poolcheck-enforced).
func (s *Session) Run(k int) ([]Hit, error) {
	v := s.g.view()
	if v == nil {
		return nil, ErrNotIndexed
	}
	textHits, err := s.g.hits(v, cacheAnnotations, ShardQueryArgs{Kind: "ann", Text: s.Text})
	if err != nil {
		return nil, err
	}
	ts := hitsToScores(textHits)
	terms, ws := s.ClusterWeights()
	var cs ir.Scores
	var wtot float64
	for _, w := range ws {
		wtot += w
	}
	if len(terms) > 0 {
		cs, err = weightedContentScores(v, terms, ws)
		if err != nil {
			ir.ReleaseScores(cs) // nil on error; release is nil-safe
			ir.ReleaseScores(ts)
			return nil, err
		}
	}
	combined, err := ir.CombineWSum(
		[]ir.Scores{ts, cs},
		[]float64{s.Alpha, 1},
		[]float64{float64(len(s.textTerms)) * ir.DefaultBelief, wtot * ir.DefaultBelief},
	)
	ir.ReleaseScores(ts)
	ir.ReleaseScores(cs)
	if err != nil {
		ir.ReleaseScores(combined)
		return nil, err
	}
	hits := scoresToHits(v, combined, k)
	ir.ReleaseScores(combined)
	return hits, nil
}

// Feedback applies one round of relevance judgments. Each relevant item's
// cluster words gain Beta weight, each non-relevant item's lose Gamma; the
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
	if err := apply(relevant, s.Beta, true); err != nil {
		return err
	}
	if err := apply(nonrelevant, -s.Gamma, false); err != nil {
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
