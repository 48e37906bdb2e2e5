// Package leaky reproduces the pre-PR error-path pool leaks verbatim:
// the exact Session.Run and dual-coding combination shapes this analyzer was
// built to catch. Never compiled — parsed by poolcheck_test only.
package leaky

// sessionRun is the pre-fix Session.Run: ts (and the maybe-borrowed cs)
// leak when WeightedContentScores fails, and combined leaks when
// CombineSum fails.
func sessionRun(k int) ([]Hit, error) {
	textHits, err := m.QueryAnnotations(text, 0)
	if err != nil {
		return nil, err
	}
	ts := hitsToScores(textHits)
	terms, ws := clusterWeights()
	var cs ir.Scores
	var wtot float64
	for _, w := range ws {
		wtot += w
	}
	if len(terms) > 0 {
		cs, err = m.WeightedContentScores(terms, ws)
		if err != nil {
			return nil, err // LEAK: ts and cs never released
		}
	}
	combined, err := ir.CombineSum(
		[]ir.Scores{ts, cs},
		[]float64{float64(len(textTerms)) * ir.DefaultBelief, wtot * ir.DefaultBelief},
	)
	ir.ReleaseScores(ts)
	ir.ReleaseScores(cs)
	if err != nil {
		return nil, err // LEAK: combined never released
	}
	hits := scoresToHits(m, combined, k)
	ir.ReleaseScores(combined)
	return hits, nil
}

// combineDualEvidence is the pre-fix dual-coding path: the text-evidence
// borrow is dropped when the content retrieval fails, and combined leaks
// when CombineSum fails.
func combineDualEvidence(site dualCodingSite, text string, k int) ([]Hit, error) {
	textHits, err := site.QueryAnnotations(text, 0)
	if err != nil {
		return nil, err
	}
	ts := hitsToScores(textHits)
	clusterWords := site.ExpandQuery(text, 5)
	var contentHits []Hit
	if len(clusterWords) > 0 {
		contentHits, err = site.QueryContent(clusterWords, 0)
		if err != nil {
			return nil, err // LEAK: ts never released
		}
	}
	cs := hitsToScores(contentHits)
	combined, err := ir.CombineSum(
		[]ir.Scores{ts, cs},
		[]float64{1, 1},
	)
	ir.ReleaseScores(ts)
	ir.ReleaseScores(cs)
	if err != nil {
		return nil, err // LEAK: combined never released
	}
	hits := scoresToHits(site, combined, k)
	ir.ReleaseScores(combined)
	return hits, nil
}

// discarded drops a borrow on the floor as a bare statement.
func discarded(child ir.Scores) {
	ir.CombineNot(child)
}

// overwritten re-borrows into a live name, leaking the first borrow.
func overwritten() ir.Scores {
	s := ir.NewScores()
	s = ir.NewScores() // LEAK: first borrow overwritten
	return s
}

// rawAccess touches the pool directly outside a poolfile.
func rawAccess() {
	s := scoresPool.Get().(Scores)
	scoresPool.Put(s)
}

// blockScanLeak borrows block-decode cursors and drops them on the error
// path — the shape the block-postings scan must never take.
func blockScanLeak(n int) error {
	cset := borrowBlockCursors(n)
	if err := scan(cset); err != nil {
		return err // LEAK: cset never released
	}
	releaseBlockCursors(cset)
	return nil
}
