// Package leaky reproduces error-path pool leaks in the shapes of the
// query hot path: a ranking cut and a multi-source scan that drop their
// borrowed scratch on an error return, plus the discard, overwrite and
// raw-pool shapes this analyzer was built to catch. Never compiled —
// parsed by poolcheck_test only.
package leaky

// cutLeg ranks one leg: scratch (and the maybe-borrowed sc) leak when
// the scan fails, and cset leaks when the decode fails.
func cutLeg(rows []Row, m, k int) ([]Row, error) {
	scratch := borrowRows()
	var sc *scanScratch
	if m > 0 {
		sc = borrowScanScratch(m)
		if err := prepare(sc); err != nil {
			return nil, err // LEAK: scratch and sc never released
		}
	}
	cset := borrowBlockCursors(m)
	err := scan(cset, sc, scratch)
	releaseRows(scratch)
	releaseScanScratch(sc)
	if err != nil {
		return nil, err // LEAK: cset never released
	}
	releaseBlockCursors(cset)
	return rows[:k], nil
}

// mergeLegs folds the legs of one query: the row scratch is dropped when
// a leg fails, and cset leaks when the merge fails.
func mergeLegs(legs [][]Row, k int) ([]Row, error) {
	scratch := borrowRows()
	for _, l := range legs {
		if len(l) == 0 {
			return nil, errEmpty // LEAK: scratch never released
		}
	}
	cset := borrowBlockCursors(len(legs))
	err := merge(cset, legs, scratch)
	releaseRows(scratch)
	if err != nil {
		return nil, err // LEAK: cset never released
	}
	releaseBlockCursors(cset)
	return legs[0][:k], nil
}

// discarded drops a borrow on the floor as a bare statement.
func discarded() {
	borrowRows()
}

// overwritten re-borrows into a live name, leaking the first borrow.
func overwritten() []Row {
	r := borrowRows()
	r = borrowRows() // LEAK: first borrow overwritten
	return r
}

// rawAccess touches the pool directly outside a poolfile.
func rawAccess() {
	r := rowPool.Get().([]Row)
	rowPool.Put(r)
}

// blockScanLeak borrows block-decode cursors and drops them on the error
// path — the shape the block-postings scan must never take.
func blockScanLeak(n int) error {
	cur := borrowBlockCursors(n)
	if err := scan(cur); err != nil {
		return err // LEAK: cur never released
	}
	releaseBlockCursors(cur)
	return nil
}
