// Image retrieval: the full Section 5 demo, in process.
//
// A synthetic collection (the web-robot substitute) is ingested into the
// ImageLibrary schema; the extraction pipeline segments every image, runs
// the two colour and four texture daemons, clusters each feature space with
// the AutoClass substitute, indexes the cluster "words" as CONTREP<Image>,
// and builds the association thesaurus. The example then walks the demo's
// interaction loop: text query → thesaurus expansion → dual-coding
// retrieval → relevance feedback.
//
// Run: go run ./examples/imageretrieval
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/corpus"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; it prints to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "== Mirror DBMS image retrieval demo (Section 5) ==")
	items := corpus.Generate(corpus.Config{N: 48, W: 64, H: 64, Seed: 7, AnnotateRate: 0.7})

	m, err := core.New()
	if err != nil {
		return err
	}
	for _, it := range items {
		if err := m.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "ingested %d images (%d annotated)\n", m.Size(), countAnnotated(items))

	fmt.Fprintln(w, "running daemons: segmenter, rgb_coarse, rgb_fine, gabor, glcm, autocorr, fractal; AutoClass; thesaurus...")
	if err := m.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
		return err
	}
	fmt.Fprintf(w, "content vocabulary: %d cluster words\n\n", len(m.Thes.Concepts()))

	queryText := "ocean"
	class := 2 // media class "water"; its canonical annotation term is "ocean"

	// 1. plain annotation retrieval (only annotated items can match)
	hits, _, err := m.Run(core.Query{Stmt: core.StmtAnnotation, Text: queryText, K: 5})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "text-only retrieval for %q:\n", queryText)
	printHits(w, hits, items, class)

	// 2. thesaurus expansion: which content clusters does "ocean" evoke?
	clusters := m.ExpandQuery(queryText, 5)
	fmt.Fprintf(w, "\nthesaurus associates %q with clusters %v\n", queryText, clusters)

	// 3. dual coding: text + content evidence combined
	dual, _, err := m.Run(core.Query{Stmt: core.StmtDual, Text: queryText, K: 8})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ndual-coding retrieval (finds unannotated water images too):")
	printHits(w, dual, items, class)

	// 4. relevance feedback loop
	sess, err := m.NewSession(queryText)
	if err != nil {
		return err
	}
	relevant := func(h core.Hit) bool { return items[h.OID].HasClass(class) }
	for round := 1; round <= 3; round++ {
		hits, _, err := m.Run(sess.Query(10))
		if err != nil {
			return err
		}
		p := core.PrecisionAtK(hits, 10, relevant)
		fmt.Fprintf(w, "\nfeedback round %d: precision@10 = %.2f\n", round-1, p)
		var rel, nonrel []bat.OID
		for _, h := range hits {
			if relevant(h) {
				rel = append(rel, h.OID)
			} else {
				nonrel = append(nonrel, h.OID)
			}
		}
		if sess, err = m.SessionFeedback(sess, rel, nonrel); err != nil {
			return err
		}
	}
	final, _, err := m.Run(sess.Query(10))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter feedback: precision@10 = %.2f\n", core.PrecisionAtK(final, 10, relevant))
	return nil
}

func printHits(w io.Writer, hits []core.Hit, items []*corpus.Item, class int) {
	for i, h := range hits {
		it := items[h.OID]
		mark := " "
		if it.HasClass(class) {
			mark = "*"
		}
		ann := it.Annotation
		if ann == "" {
			ann = "(unannotated)"
		}
		if len(ann) > 46 {
			ann = ann[:46] + "…"
		}
		fmt.Fprintf(w, "  %s %d. %-34s %.4f  %s\n", mark, i+1, h.URL, h.Score, ann)
	}
}

func countAnnotated(items []*corpus.Item) int {
	n := 0
	for _, it := range items {
		if it.Annotation != "" {
			n++
		}
	}
	return n
}
