// Package clean holds the fixed shapes of the query hot path: every
// borrow released exactly once on every path. poolcheck must report
// nothing here. Never compiled — parsed by poolcheck_test only.
package clean

// cutLeg is the fixed leg cut: every error return releases every live
// borrow (releases are nil-safe).
func cutLeg(rows []Row, m, k int) ([]Row, error) {
	scratch := borrowRows()
	var sc *scanScratch
	if m > 0 {
		sc = borrowScanScratch(m)
		if err := prepare(sc); err != nil {
			releaseScanScratch(sc)
			releaseRows(scratch)
			return nil, err
		}
	}
	cset := borrowBlockCursors(m)
	err := scan(cset, sc, scratch)
	releaseRows(scratch)
	releaseScanScratch(sc)
	if err != nil {
		releaseBlockCursors(cset)
		return nil, err
	}
	releaseBlockCursors(cset)
	return rows[:k], nil
}

// deferred releases through defer: covers every exit after registration.
func deferred() error {
	r := borrowRows()
	defer releaseRows(r)
	if bad() {
		return errBad
	}
	use(r)
	return nil
}

// transferred returns the borrow: ownership moves to the caller.
func transferred() ([]Row, error) {
	out := borrowRows()
	if bad() {
		releaseRows(out)
		return nil, errBad
	}
	return out, nil
}

// escaped stores the borrow into an outer structure: ownership transfers.
func escaped(perShard [][]Row, s int) {
	out := borrowRows()
	perShard[s] = out
}

// looped borrows and releases within each iteration.
func looped(n int) {
	for i := 0; i < n; i++ {
		r := borrowRows()
		use(r)
		releaseRows(r)
	}
}

// switched releases on every arm that falls through.
func switched(mode int) {
	r := borrowRows()
	switch mode {
	case 0:
		use(r)
	default:
		use2(r)
	}
	releaseRows(r)
}

// blockScan borrows block-decode cursors under defer: released on every
// path, including errors.
func blockScan(n int) error {
	cset := borrowBlockCursors(n)
	defer releaseBlockCursors(cset)
	return scan(cset)
}
