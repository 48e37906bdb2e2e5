package thesaurus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomCorpus draws docs over small vocabularies, so words and concepts
// repeat within and across docs; some docs have no words (AddDocs skips
// them) or no concepts.
func randomCorpus(rng *rand.Rand, n int) []Doc {
	docs := make([]Doc, n)
	for i := range docs {
		var d Doc
		for j, m := 0, rng.Intn(6); j < m; j++ {
			d.Words = append(d.Words, fmt.Sprintf("w%d", rng.Intn(12)))
		}
		for j, m := 0, rng.Intn(5); j < m; j++ {
			d.Concepts = append(d.Concepts, fmt.Sprintf("c%d", rng.Intn(8)))
		}
		docs[i] = d
	}
	return docs
}

// randomBatches splits docs at random cut points; batches may be empty.
func randomBatches(rng *rand.Rand, docs []Doc) [][]Doc {
	var out [][]Doc
	for lo := 0; lo < len(docs) || rng.Intn(3) == 0; {
		hi := lo + rng.Intn(len(docs)-lo+1)
		out = append(out, docs[lo:hi])
		lo = hi
		if lo == len(docs) && rng.Intn(2) == 0 {
			break
		}
	}
	return out
}

// referenceState folds docs pair by pair, the definition AddDocs' batched
// counting must reproduce.
func referenceState(docs []Doc) *State {
	s := &State{TF: map[string]map[string]int{}, CLen: map[string]int{}, DF: map[string]int{}}
	for _, d := range docs {
		if len(d.Words) == 0 {
			continue
		}
		for _, c := range d.Concepts {
			m, ok := s.TF[c]
			if !ok {
				m = map[string]int{}
				s.TF[c] = m
				s.Concepts = append(s.Concepts, c)
			}
			for _, w := range d.Words {
				if m[w] == 0 {
					s.DF[w]++
				}
				m[w]++
				s.CLen[c]++
			}
		}
	}
	sort.Strings(s.Concepts)
	total := 0
	for _, l := range s.CLen {
		total += l
	}
	if len(s.CLen) > 0 {
		s.AvgLen = float64(total) / float64(len(s.CLen))
	}
	return s
}

// TestAddDocsEqualsBuild checks AddDocs' contract: folding a corpus in
// batches, in order, yields exactly the thesaurus Build constructs from
// the concatenated corpus, and both equal the pair-by-pair reference.
func TestAddDocsEqualsBuild(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomCorpus(rng, rng.Intn(40))
		want := Build(docs).State()
		if ref := referenceState(docs); !reflect.DeepEqual(want, ref) {
			t.Fatalf("seed %d: Build of %d docs:\n got  %+v\n want %+v", seed, len(docs), want, ref)
		}
		batches := randomBatches(rng, docs)
		var got *Thesaurus
		if len(batches) > 0 && rng.Intn(2) == 0 {
			got, batches = Build(batches[0]), batches[1:]
		} else {
			got = Build(nil)
		}
		for _, b := range batches {
			got.AddDocs(b)
		}
		if st := got.State(); !reflect.DeepEqual(st, want) {
			t.Fatalf("seed %d: %d docs folded in %d batches:\n got  %+v\n want %+v", seed, len(docs), len(batches), st, want)
		}
	}
}

// TestAddDocsConcurrentAssociate folds batches while readers Associate
// and list concepts — the online refresh path's access pattern (run it
// under -race) — and still ends at Build's state.
func TestAddDocsConcurrentAssociate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomCorpus(rng, 400)
	want := Build(docs).State()
	th := Build(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := []string{fmt.Sprintf("w%d", (i+r)%12), fmt.Sprintf("w%d", (i*5+r)%12)}
				for _, a := range th.Associate(q, 3) {
					if a.Belief <= 0 {
						t.Errorf("non-positive belief %v", a)
						return
					}
				}
				_ = th.Concepts()
			}
		}(r)
	}
	for _, b := range randomBatches(rng, docs) {
		th.AddDocs(b)
	}
	close(stop)
	wg.Wait()
	if st := th.State(); !reflect.DeepEqual(st, want) {
		t.Fatal("concurrently folded thesaurus differs from Build of the whole corpus")
	}
}
