package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// corpusBytes flattens everything the served program receives of a
// corpus, so equal seeds can be compared byte for byte.
func corpusBytes(docs []doc) []byte {
	var buf bytes.Buffer
	for i := range docs {
		buf.WriteString(docs[i].URL + "\n" + docs[i].Annotation + "\n")
		buf.Write(docs[i].ppm())
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := makeCorpus(1, 300), makeCorpus(1, 300), makeCorpus(2, 300)
	if !bytes.Equal(corpusBytes(a), corpusBytes(b)) {
		t.Fatal("seed 1 generated two different corpora")
	}
	if bytes.Equal(corpusBytes(a), corpusBytes(other)) {
		t.Fatal("seeds 1 and 2 generated the same corpus")
	}
	sc := scales["smoke"]
	for _, w := range workloads {
		ops := take(w.source(1, a, sc), 400)
		if again := take(w.source(1, b, sc), 400); !reflect.DeepEqual(ops, again) {
			t.Errorf("%s: seed 1 generated two different op sequences", w.name)
		}
		if differ := take(w.source(2, a, sc), 400); reflect.DeepEqual(ops, differ) {
			t.Errorf("%s: seeds 1 and 2 generated the same op sequence", w.name)
		}
	}
}

func TestColdNeverRepeatsHotFitsCaches(t *testing.T) {
	docs := makeCorpus(1, 500)
	seen := map[string]bool{}
	for _, text := range take(newColdSource(1, docs), 5000) {
		terms := strings.Fields(text)
		if len(terms) < 2 || len(terms) > 4 {
			t.Fatalf("cold text %q has %d terms, want 2-4", text, len(terms))
		}
		sort.Strings(terms)
		key := strings.Join(terms, " ")
		if seen[key] {
			t.Fatalf("cold source repeated the term set %q", key)
		}
		seen[key] = true
	}

	sc := scales["full"]
	pool := map[string]bool{}
	for _, text := range take(newHotSource(1, docs, sc.HotPool), 20000) {
		pool[text] = true
	}
	if len(pool) > sc.HotPool || len(pool) < sc.HotPool/2 {
		t.Fatalf("hot source drew %d distinct texts from a pool of %d", len(pool), sc.HotPool)
	}
	// A cached reply is topK hits of a URL and a score; 1 KiB bounds it.
	if len(pool) > thetaMemoEntries || int64(len(pool))*1024 > resultCacheBytes {
		t.Fatalf("hot pool of %d texts does not fit the θ-memo (%d entries) and the result cache (%d bytes)",
			len(pool), thetaMemoEntries, resultCacheBytes)
	}
}
