//go:build pooldebug

package moa

import (
	"sync/atomic"

	"mirror/internal/bat"
)

// pooldebug: live-borrow accounting for the row scratch pool (see
// internal/bat/blockpool.go for the discipline's full description).
// Slice identity is unstable across heap growth, so this tracks a counter
// and poisons retained capacity rather than registering pointers.
//
//poolcheck:poolfile

var rowsLive atomic.Int64

func rowsBorrowed() { rowsLive.Add(1) }

func rowsReleased(r []Row) {
	rowsLive.Add(-1)
	for i := range r[:cap(r)] {
		r[:cap(r)][i] = Row{OID: ^bat.OID(0), Value: nil}
	}
}

// LiveRows reports the number of borrowed-but-unreleased row scratch
// slices.
func LiveRows() int { return int(rowsLive.Load()) }
