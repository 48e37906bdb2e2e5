package main

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"mirror/internal/corpus"
	"mirror/internal/media"
)

// Everything the served program receives is generated here from the
// seed: the corpus (rasters + annotations) and the query texts. The
// served stores never see the seed itself.

// doc is one library item as the benchmark ingests it.
type doc struct {
	URL        string
	Annotation string
	Img        *media.Image
	words      []string // Annotation split once; query texts draw from it
}

// ppm encodes the raster the way an RPC client ships it.
func (d *doc) ppm() []byte {
	var buf bytes.Buffer
	d.Img.EncodePPM(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// makeCorpus generates n documents: the demo collection's scenes (8×8
// rasters, Zipf-skewed latent classes, 90 % annotated) with each
// annotation extended by a Zipfian synthetic text document, so the
// annotation CONTREP has the posting-list skew real text has.
func makeCorpus(seed int64, n int) []doc {
	items := corpus.Generate(corpus.Config{
		N: n, W: 8, H: 8, Seed: seed, AnnotateRate: 0.9, ClassZipf: 1.3,
	})
	texts := corpus.TextCollection(corpus.TextConfig{
		N: n, Vocab: 5000, DocLen: 40, Seed: seed, ZipfS: 1.1,
	})
	docs := make([]doc, n)
	for i, it := range items {
		ann := it.Annotation
		if ann != "" {
			ann += " " + texts[i]
		}
		docs[i] = doc{URL: it.URL, Annotation: ann, Img: it.Scene.Img, words: strings.Fields(ann)}
	}
	return docs
}

// opSource hands out the query text of the next operation. Sources are
// deterministic sequences guarded by a mutex: which client takes which
// index depends on timing (closed loop), the sequence itself does not.
type opSource interface {
	next() string
}

// coldSource yields 2–4-term texts drawn from a random document's
// annotation, never repeating a term set within a run — so neither the
// result cache nor the θ-memo can serve a repeat.
type coldSource struct {
	mu   sync.Mutex
	rng  *rand.Rand
	docs []doc
	seen map[string]struct{}
}

func newColdSource(seed int64, docs []doc) *coldSource {
	return &coldSource{rng: rand.New(rand.NewSource(seed)), docs: docs, seen: map[string]struct{}{}}
}

func (s *coldSource) next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		words := s.docs[s.rng.Intn(len(s.docs))].words
		n := 2 + s.rng.Intn(3)
		if len(words) < 8 {
			continue // unannotated (or nearly): no vocabulary to draw from
		}
		// Bounded draws: a document whose words are nearly all one term
		// cannot supply n distinct ones, so give up on it.
		picked := make([]string, 0, n)
		for tries := 0; len(picked) < n && tries < 8*n; tries++ {
			w := words[s.rng.Intn(len(words))]
			dup := false
			for _, p := range picked {
				dup = dup || p == w
			}
			if !dup {
				picked = append(picked, w)
			}
		}
		if len(picked) < n {
			continue
		}
		text := strings.Join(picked, " ")
		sort.Strings(picked)
		key := strings.Join(picked, " ")
		if _, ok := s.seen[key]; ok {
			continue
		}
		s.seen[key] = struct{}{}
		return text
	}
}

// hotSource draws Zipf(1.1) over a fixed pool of texts small enough to
// fit the result cache and the θ-memo.
type hotSource struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	pool []string
}

func newHotSource(seed int64, docs []doc, pool int) *hotSource {
	cold := newColdSource(seed^0x5eed, docs)
	texts := make([]string, pool)
	for i := range texts {
		texts[i] = cold.next()
	}
	rng := rand.New(rand.NewSource(seed))
	return &hotSource{zipf: rand.NewZipf(rng, 1.1, 1, uint64(pool-1)), pool: texts}
}

func (s *hotSource) next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool[s.zipf.Uint64()]
}

// take returns the first n texts of a source (the traced run's fixed
// prefix of the op sequence).
func take(src opSource, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}
