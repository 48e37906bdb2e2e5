package core

// Test-only hooks for the external core_test package.

// RefSessionRun is the former Session.Run composition over a single
// store (refSessionRun), the reference router sessions are checked
// against.
var RefSessionRun = refSessionRun
