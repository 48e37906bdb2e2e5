// Package thesaurus implements the association thesaurus of Section 5: the
// automatically constructed mapping between words in textual annotations
// and clusters in the image content representation (the realisation of
// Paivio's dual coding theory in the demo). Following the PhraseFinder
// observation the paper cites [JC94], each concept (cluster term) is
// treated as a document whose text is the annotation words co-occurring
// with it, and concepts are ranked for a query with the same inference
// network belief function used for document retrieval.
package thesaurus

import (
	"slices"
	"strings"
	"sync"

	"mirror/internal/ir"
)

// Doc is one training observation: the analysed annotation words of an
// item together with the content-cluster terms extracted from it.
type Doc struct {
	Words    []string
	Concepts []string
}

// Association is a ranked (concept, belief) pair.
type Association struct {
	Concept string
	Belief  float64
}

// Thesaurus is the built association structure. It synchronises
// internally (one RWMutex), so lock-free query paths may Associate
// concurrently with relevance feedback calling Reinforce.
type Thesaurus struct {
	mu       sync.RWMutex
	concepts []string
	tf       map[string]map[string]int // concept → word → co-occurrence count
	clen     map[string]int            // concept pseudo-document length
	df       map[string]int            // word → #concepts it associates with
	avgLen   float64
}

// Build constructs the thesaurus from co-occurrence data.
func Build(docs []Doc) *Thesaurus {
	t := &Thesaurus{
		tf:   map[string]map[string]int{},
		clen: map[string]int{},
		df:   map[string]int{},
	}
	t.AddDocs(docs)
	return t
}

// AddDocs folds additional training observations into the thesaurus. The
// statistics are pure co-occurrence counts, so adding documents
// incrementally yields exactly the thesaurus Build would construct from
// the concatenated corpus — the property the online-indexing refresh path
// relies on (delta publishes extend the shared thesaurus in place while
// queries keep Associating concurrently).
func (t *Thesaurus) AddDocs(docs []Doc) {
	// Count the batch before touching the shared maps: words get dense
	// ids, each concept's docs are tallied into one reused counter array,
	// and then every distinct (concept, word) pair of the batch costs one
	// read and one write of its map, however often it occurs. The counts
	// only grow, so the result equals folding pair by pair.
	wordID := map[string]int32{}
	var vocab []string
	docWords := make([][]int32, len(docs))
	byConcept := map[string][]int{} // concept → its docs, in order
	var order []string              // concepts by first appearance
	for i, d := range docs {
		if len(d.Words) == 0 {
			continue
		}
		ids := make([]int32, len(d.Words))
		for j, w := range d.Words {
			id, ok := wordID[w]
			if !ok {
				id = int32(len(vocab))
				wordID[w] = id
				vocab = append(vocab, w)
			}
			ids[j] = id
		}
		docWords[i] = ids
		for _, c := range d.Concepts {
			if _, ok := byConcept[c]; !ok {
				order = append(order, c)
			}
			byConcept[c] = append(byConcept[c], i)
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	count := make([]int, len(vocab))
	var touched []int32
	for _, c := range order {
		m, ok := t.tf[c]
		if !ok {
			m = map[string]int{}
			t.tf[c] = m
			t.concepts = append(t.concepts, c)
		}
		for _, i := range byConcept[c] {
			for _, id := range docWords[i] {
				if count[id] == 0 {
					touched = append(touched, id)
				}
				count[id]++
			}
			t.clen[c] += len(docWords[i])
		}
		for _, id := range touched {
			w := vocab[id]
			n := m[w]
			if n == 0 {
				t.df[w]++
			}
			m[w] = n + count[id]
			count[id] = 0
		}
		touched = touched[:0]
	}
	slices.Sort(t.concepts)
	var total int
	for _, l := range t.clen {
		total += l
	}
	if len(t.clen) > 0 {
		t.avgLen = float64(total) / float64(len(t.clen))
	}
}

// Concepts lists the known concepts, sorted.
func (t *Thesaurus) Concepts() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.concepts...)
}

// State is the serialisable form of a Thesaurus. Unlike rebuilding from
// training Docs, round-tripping through State preserves the adjustments
// learned from relevance feedback (Reinforce), so a persisted store
// keeps its adaptation across restarts.
type State struct {
	Concepts []string                  `json:"concepts"`
	TF       map[string]map[string]int `json:"tf"`
	CLen     map[string]int            `json:"clen"`
	DF       map[string]int            `json:"df"`
	AvgLen   float64                   `json:"avg_len"`
}

// State snapshots the thesaurus for persistence.
func (t *Thesaurus) State() *State {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &State{
		Concepts: append([]string(nil), t.concepts...),
		TF:       make(map[string]map[string]int, len(t.tf)),
		CLen:     make(map[string]int, len(t.clen)),
		DF:       make(map[string]int, len(t.df)),
		AvgLen:   t.avgLen,
	}
	for c, m := range t.tf {
		cm := make(map[string]int, len(m))
		for w, n := range m {
			cm[w] = n
		}
		s.TF[c] = cm
	}
	for c, n := range t.clen {
		s.CLen[c] = n
	}
	for w, n := range t.df {
		s.DF[w] = n
	}
	return s
}

// FromState rebuilds a thesaurus snapshotted with State.
func FromState(s *State) *Thesaurus {
	t := &Thesaurus{
		concepts: append([]string(nil), s.Concepts...),
		tf:       make(map[string]map[string]int, len(s.TF)),
		clen:     make(map[string]int, len(s.CLen)),
		df:       make(map[string]int, len(s.DF)),
		avgLen:   s.AvgLen,
	}
	for c, m := range s.TF {
		cm := make(map[string]int, len(m))
		for w, n := range m {
			cm[w] = n
		}
		t.tf[c] = cm
	}
	for c, n := range s.CLen {
		t.clen[c] = n
	}
	for w, n := range s.DF {
		t.df[w] = n
	}
	return t
}

// Associate ranks concepts by their belief given the query words —
// "measuring the belief in a concept (instead of in a document) given the
// query" — and returns the top k (k <= 0 returns all).
func (t *Thesaurus) Associate(queryWords []string, k int) []Association {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.concepts)
	out := make([]Association, 0, n)
	for _, c := range t.concepts {
		m := t.tf[c]
		score := 0.0
		for _, w := range queryWords {
			df := t.df[w]
			if df == 0 {
				continue // word never co-occurs with any concept
			}
			score += ir.Belief(m[w], t.clen[c], t.avgLen, df, n)
		}
		if score > 0 {
			out = append(out, Association{Concept: c, Belief: score})
		}
	}
	slices.SortFunc(out, byBeliefDesc)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// WordsFor ranks the annotation words most associated with a concept (the
// inverse direction, used by the demo UI to explain clusters).
func (t *Thesaurus) WordsFor(concept string, k int) []Association {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m := t.tf[concept]
	out := make([]Association, 0, len(m))
	for w, tf := range m {
		out = append(out, Association{
			Concept: w,
			Belief:  ir.Belief(tf, t.clen[concept], t.avgLen, t.df[w], len(t.concepts)),
		})
	}
	slices.SortFunc(out, byBeliefDesc)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// byBeliefDesc orders associations by descending belief, ties by
// ascending name — a total order, since names are unique within a ranking.
func byBeliefDesc(a, b Association) int {
	switch {
	case a.Belief > b.Belief:
		return -1
	case a.Belief < b.Belief:
		return 1
	}
	return strings.Compare(a.Concept, b.Concept)
}

// Reinforce adapts the thesaurus from relevance feedback ("we are
// investigating machine learning techniques to adapt the thesaurus ...
// using the relevance feedback across query sessions"): co-occurrences
// between the query words and the concepts of relevant items are
// strengthened, those of non-relevant items weakened.
func (t *Thesaurus) Reinforce(queryWords []string, concepts []string, relevant bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delta := 1
	for _, c := range concepts {
		m, ok := t.tf[c]
		if !ok {
			if !relevant {
				continue
			}
			m = map[string]int{}
			t.tf[c] = m
			t.concepts = append(t.concepts, c)
			slices.Sort(t.concepts)
		}
		for _, w := range queryWords {
			old := m[w]
			if relevant {
				if old == 0 {
					t.df[w]++
				}
				m[w] += delta
				t.clen[c] += delta
			} else if old > 0 {
				m[w]--
				t.clen[c]--
				if m[w] == 0 {
					delete(m, w)
					t.df[w]--
				}
			}
		}
	}
	var total int
	for _, l := range t.clen {
		total += l
	}
	if len(t.clen) > 0 {
		t.avgLen = float64(total) / float64(len(t.clen))
	}
}
