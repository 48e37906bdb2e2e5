package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mirror/internal/bat"
	"mirror/internal/corpus"
)

// contentModelHash is the sha256 of the content model a 400-document full
// build plus one 2600-document Refresh produce: the codebook JSON, every
// document's content words, and the thesaurus state. The pipeline kernels
// (feature extraction, AutoClass fitting and assignment) may get faster but
// must not change a single output bit, so this hash is fixed.
const contentModelHash = "7905e192ba9dbc414db8b66ebe398dbc9fcd42b3447abb25e6c9e88f684dab71"

func TestContentModelGolden(t *testing.T) {
	items := corpus.Generate(corpus.Config{N: 3000, W: 8, H: 8, Seed: 1, AnnotateRate: 0.9, ClassZipf: 1.3})
	m, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			t.Fatal(err)
		}
		if i == 399 {
			if err := m.BuildContentIndex(DefaultIndexOptions()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Refresh(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	cb, err := json.Marshal(m.codebook)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(cb)
	for oid := bat.OID(0); oid < bat.OID(len(items)); oid++ {
		fmt.Fprintln(h, m.ContentTerms(oid))
	}
	th, err := json.Marshal(m.Thes.State())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(th)
	if got := hex.EncodeToString(h.Sum(nil)); got != contentModelHash {
		t.Fatalf("content model hash %s, want %s", got, contentModelHash)
	}
}
