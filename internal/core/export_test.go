package core

// Test-only hooks for the external core_test package.

// RefSessionRun is the former session-round composition over a single
// store (refSessionRun), the reference router sessions are checked
// against.
var RefSessionRun = refSessionRun

// PairBeliefColumns lists the pair-order belief columns a store or its
// epochs hold (pairBeliefColumns).
var PairBeliefColumns = pairBeliefColumns
