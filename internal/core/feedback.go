package core

import (
	"fmt"
	"math"
	"sort"

	"mirror/internal/bat"
	"mirror/internal/ir"
)

// Session is the state of one interactive retrieval session with relevance
// feedback, the loop of Section 5.2: "The user may provide relevance
// feedback for these images; this relevance feedback is used to improve
// the current query."
//
// It is a plain value the caller holds; the engine keeps nothing per
// session. The query has a fixed text part and a content part, the
// weighted cluster words Concepts/Weights, seeded from the thesaurus and
// moved by each feedback round Rocchio-style. What persists "across query
// sessions" is the thesaurus reinforcement, which is WAL-logged, so a
// session survives a server restart or a failover unchanged. The engine
// takes the concepts in any order and keeps them canonical: weight
// descending, then name. It reads the caller's slices and never writes
// them. Round counts the feedback rounds applied; only the caller reads it.
type Session struct {
	Text     string
	Concepts []string
	Weights  []float64
	Round    int
}

// The Rocchio-style gains SessionFeedback applies per judgment: a
// relevant item's cluster words gain feedbackGain weight, a non-relevant
// item's lose feedbackPenalty. The original text query keeps unit weight.
const (
	feedbackGain    = 0.75
	feedbackPenalty = 0.25
)

// conceptWeights validates a weighted concept set — one weight per
// concept, no concept twice, no weight negative or NaN, and a sum short
// of +Inf — and returns it as concept → weight.
func conceptWeights(concepts []string, weights []float64) (map[string]float64, error) {
	if len(weights) != len(concepts) {
		return nil, fmt.Errorf("core: %d concepts vs %d weights", len(concepts), len(weights))
	}
	out := make(map[string]float64, len(concepts))
	wtot := 0.0
	for i, c := range concepts {
		w := weights[i]
		if !(w >= 0) {
			return nil, fmt.Errorf("core: negative or NaN concept weight %v", w)
		}
		if _, dup := out[c]; dup {
			return nil, fmt.Errorf("core: concept %q given twice", c)
		}
		out[c] = w
		wtot += w
	}
	if math.IsInf(wtot, 1) {
		return nil, fmt.Errorf("core: concept weights sum to +Inf")
	}
	return out, nil
}

// sessionOf builds a session in canonical order from concept → weight.
func sessionOf(text string, weights map[string]float64, round int) Session {
	s := Session{Text: text, Concepts: make([]string, 0, len(weights)), Weights: make([]float64, len(weights)), Round: round}
	for c := range weights {
		s.Concepts = append(s.Concepts, c)
	}
	sort.Slice(s.Concepts, func(i, j int) bool {
		wi, wj := weights[s.Concepts[i]], weights[s.Concepts[j]]
		if wi != wj {
			return wi > wj
		}
		return s.Concepts[i] < s.Concepts[j]
	})
	for i, c := range s.Concepts {
		s.Weights[i] = weights[c]
	}
	return s
}

// NewSession starts a relevance-feedback session from a free-text query,
// seeding its concepts from the serving view's thesaurus.
func (g *Gather) NewSession(text string) (Session, error) {
	v := g.view()
	if v == nil {
		return Session{}, ErrNotIndexed
	}
	weights := map[string]float64{}
	if thes := v.Thesaurus(); thes != nil {
		for _, a := range thes.Associate(ir.Analyze(text), 5) {
			weights[a.Concept] = a.Belief
		}
	}
	return sessionOf(text, weights, 0), nil
}

// Query is the session's current round for Run: the dual statement with
// the cluster words as a weighted set, the #wsum of the text and the
// weighted content evidence; k <= 0 asks for the full ranking.
func (s Session) Query(k int) Query {
	q := Query{Stmt: StmtDual, Text: s.Text, Terms: s.Concepts, Weights: s.Weights, K: k}
	if q.Weights == nil { // a round without concepts is still weighted
		q.Weights = []float64{}
	}
	return q
}

// SessionFeedback applies one round of relevance judgments and returns the
// advanced session. Each relevant item's cluster words gain feedbackGain
// weight, each non-relevant item's lose feedbackPenalty (a word whose
// weight drops to zero leaves the query); the thesaurus is reinforced so
// the adaptation persists "across query sessions" — and, in persistent
// mode, across restarts: each reinforcement is logged to the WAL and
// replayed during recovery. On a WAL error the batch may be partially
// applied to the thesaurus (and persists at the next checkpoint), so do
// not retry the same judgments; the caller's session is unchanged.
func (g *Gather) SessionFeedback(s Session, relevant, nonrelevant []bat.OID) (Session, error) {
	if len(relevant)+len(nonrelevant) == 0 {
		return s, fmt.Errorf("core: feedback needs at least one judgment")
	}
	weights, err := conceptWeights(s.Concepts, s.Weights)
	if err != nil {
		return s, err
	}
	textTerms := ir.Analyze(s.Text)
	apply := func(oids []bat.OID, gain float64, rel bool) error {
		for _, oid := range oids {
			words := g.shards.ContentTerms(oid)
			if len(words) == 0 {
				continue // unknown OID: nothing to weight, reinforce or log
			}
			for _, w := range words {
				weights[w] += gain
				if weights[w] <= 0 {
					delete(weights, w)
				}
			}
			// Under the write lock: reinforcement + WAL append stay
			// atomic with any concurrent Checkpoint.
			if err := g.shards.ReinforceLogged(textTerms, words, rel); err != nil {
				return err
			}
		}
		return nil
	}
	if err := apply(relevant, feedbackGain, true); err != nil {
		return s, err
	}
	if err := apply(nonrelevant, -feedbackPenalty, false); err != nil {
		return s, err
	}
	return sessionOf(s.Text, weights, s.Round+1), nil
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
