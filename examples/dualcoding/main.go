// Dual coding: a closer look at the thesaurus (Section 5.2).
//
// The association thesaurus links annotation vocabulary to content
// clusters — "an implementation of Paivio's dual coding theory". This
// example builds the demo index, prints the strongest word↔cluster
// associations in both directions, and quantifies what the paper could
// only demo: the mean reciprocal rank of ground-truth-matching images with
// and without thesaurus expansion, over one query per visual class.
//
// Run: go run ./examples/dualcoding
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/ir"
	"mirror/internal/media"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; it prints to w.
func run(w io.Writer) error {
	items := corpus.Generate(corpus.Config{N: 60, W: 64, H: 64, Seed: 5, AnnotateRate: 0.6})
	m, err := core.New()
	if err != nil {
		return err
	}
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			return err
		}
	}
	if err := m.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
		return err
	}

	fmt.Fprintln(w, "== word → cluster associations ==")
	for class := 0; class < len(media.Classes); class++ {
		term := corpus.CanonicalTerm(class)
		assocs := m.Thes.Associate(ir.Analyze(term), 3)
		fmt.Fprintf(w, "  %-10s →", term)
		for _, a := range assocs {
			fmt.Fprintf(w, "  %s(%.2f)", a.Concept, a.Belief)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\n== cluster → word associations (what does each cluster 'mean'?) ==")
	for i, c := range m.Thes.Concepts() {
		if i >= 8 {
			fmt.Fprintf(w, "  ... and %d more clusters\n", len(m.Thes.Concepts())-8)
			break
		}
		words := m.Thes.WordsFor(c, 3)
		fmt.Fprintf(w, "  %-14s →", c)
		for _, a := range words {
			fmt.Fprintf(w, "  %s(%.2f)", a.Concept, a.Belief)
		}
		fmt.Fprintln(w)
	}

	// Quantify dual coding: for each class's canonical term, how early does
	// the first ground-truth-relevant UNANNOTATED image appear?
	fmt.Fprintln(w, "\n== retrieval of unannotated relevant images ==")
	var textRankings, dualRankings [][]core.Hit
	relevanceFns := make([]func(core.Hit) bool, 0, len(media.Classes))
	for class := 0; class < len(media.Classes); class++ {
		term := corpus.CanonicalTerm(class)
		cl := class
		rel := func(h core.Hit) bool {
			it := items[h.OID]
			return it.Annotation == "" && it.HasClass(cl)
		}
		// skip classes with no unannotated relevant item
		exists := false
		for _, it := range items {
			if it.Annotation == "" && it.HasClass(cl) {
				exists = true
				break
			}
		}
		if !exists {
			continue
		}
		th, _, err := m.Run(core.Query{Stmt: core.StmtAnnotation, Text: term})
		if err != nil {
			return err
		}
		dh, _, err := m.Run(core.Query{Stmt: core.StmtDual, Text: term})
		if err != nil {
			return err
		}
		textRankings = append(textRankings, th)
		dualRankings = append(dualRankings, dh)
		relevanceFns = append(relevanceFns, rel)
	}
	mrr := func(rankings [][]core.Hit) float64 {
		var sum float64
		for i, hits := range rankings {
			for rank, h := range hits {
				if relevanceFns[i](h) {
					sum += 1 / float64(rank+1)
					break
				}
			}
		}
		return sum / float64(len(rankings))
	}
	fmt.Fprintf(w, "  MRR of first unannotated relevant image, text only:   %.3f\n", mrr(textRankings))
	fmt.Fprintf(w, "  MRR of first unannotated relevant image, dual coding: %.3f\n", mrr(dualRankings))
	fmt.Fprintln(w, "  (text-only retrieval cannot see unannotated images at all;")
	fmt.Fprintln(w, "   any lift comes purely from the thesaurus → content path)")
	return nil
}
