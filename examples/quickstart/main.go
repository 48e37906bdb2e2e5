// Quickstart: the paper's Section 3 scenario, end to end.
//
// It defines the TraditionalImgLib schema exactly as printed in the paper,
// inserts a handful of annotated images, and runs the paper's ranking
// query — map[sum(THIS)](map[getBL(...)](...)) — showing both the ranked
// result and the MIL program the Moa layer flattens the query into.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mirror/internal/ir"
	"mirror/internal/moa"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; it prints to w.
func run(w io.Writer) error {
	db := moa.NewDatabase()

	// The schema, verbatim from Section 3 of the paper.
	err := db.DefineFromSource(`
		define TraditionalImgLib as
		SET<
			TUPLE<
				Atomic<URL>: source,
				CONTREP<Text>: annotation
			>>;`)
	if err != nil {
		return err
	}

	images := []struct{ url, annotation string }{
		{"http://lib/beach.ppm", "a sandy beach with gentle ocean waves at sunset"},
		{"http://lib/forest.ppm", "dense green forest with tall pine trees"},
		{"http://lib/harbour.ppm", "boats in the harbour on calm ocean water"},
		{"http://lib/city.ppm", "city skyline with bright lights at night"},
		{"http://lib/dunes.ppm", "sand dunes in the desert under a clear sky"},
		{"http://lib/reef.ppm", "colourful fish over a coral reef in the ocean"},
	}
	for _, im := range images {
		if _, err := db.Insert("TraditionalImgLib", map[string]any{
			"source": im.url, "annotation": im.annotation,
		}); err != nil {
			return err
		}
	}
	// Recompute collection statistics and beliefs after the batch.
	if err := db.Finalize("TraditionalImgLib"); err != nil {
		return err
	}

	// "Ranking the images with respect to a query is then performed with
	// the following query" — Section 3, verbatim.
	const rankingQuery = `
		map[sum(THIS)](
			map[getBL(THIS.annotation, query, stats)]( TraditionalImgLib ));`

	eng := moa.NewEngine(db)
	queryText := "ocean waves"
	params := ir.QueryParams(ir.Analyze(queryText))

	compiled, err := eng.Compile(rankingQuery, params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Moa query:")
	fmt.Fprintln(w, rankingQuery)
	fmt.Fprintln(w, "flattens to MIL:")
	fmt.Fprint(w, compiled.MIL())
	fmt.Fprintln(w)

	res, err := compiled.Run()
	if err != nil {
		return err
	}
	res.SortByScoreDesc()

	srcBAT, _ := db.BAT("TraditionalImgLib_source")
	fmt.Fprintf(w, "ranking for query %q:\n", queryText)
	for i, row := range res.Rows {
		url, _ := srcBAT.Find(row.OID)
		fmt.Fprintf(w, "  %d. %-26s %.4f\n", i+1, url, row.Value)
	}

	// The same engine answers ordinary relational queries, and IR and data
	// retrieval compose: rank only documents whose URL is not the reef.
	res2, err := eng.Query(`
		map[sum(THIS)](
			map[getBL(THIS.annotation, query, stats)](
				select[THIS.source != "http://lib/reef.ppm"](TraditionalImgLib)));`, params)
	if err != nil {
		return err
	}
	res2.SortByScoreDesc()
	fmt.Fprintf(w, "\nsame query, reef excluded via relational select: top hit ")
	url, _ := srcBAT.Find(res2.Rows[0].OID)
	fmt.Fprintf(w, "%v (%.4f)\n", url, res2.Rows[0].Value)
	return nil
}
