// Package mirror is a from-scratch Go reproduction of "The Mirror MMDBMS
// Architecture" (de Vries, van Doorn, Blanken, Apers; VLDB 1999): a
// multimedia DBMS that implements an extensible object-oriented logical
// data model (the Moa object algebra) on a binary relational physical data
// model (a Monet-style BAT kernel), with the inference network retrieval
// model integrated as the CONTREP structure, and the paper's open
// distributed architecture (data dictionary, extraction daemons, media
// server) built over TCP.
//
// The public surface lives in the internal packages (this repository is a
// self-contained reproduction, consumed through its examples and
// binaries):
//
//	internal/bat        the binary-relational physical layer (BATs) and
//	                    its operators, one goroutine per query
//	internal/storage    the persistent BAT buffer pool (BBP): heap
//	                    files, mmap loads, incremental checkpoints
//	internal/mil        the MIL physical execution language
//	internal/moa        the Moa object algebra: parser, checker, optimizer,
//	                    flattening translator, tuple-at-a-time interpreter
//	internal/ir         text analysis + inference network + CONTREP
//	internal/media      images, PPM codec, synthetic scenes
//	internal/feature    segmentation + 6 feature extraction daemons
//	internal/cluster    AutoClass-style Bayesian classification
//	internal/thesaurus  the association thesaurus (dual coding)
//	internal/dict       the distributed data dictionary
//	internal/daemon     the daemon framework (RPC, CORBA substitute)
//	internal/mediaserver the HTTP media server and web robot
//	internal/core       the Mirror DBMS facade and network server
//
// ARCHITECTURE.md at the repository root maps the paper onto these
// packages, specifies the on-disk store format (manifest, heap files,
// WAL, recovery sequence), and says why queries run in parallel with each
// other but never inside one;
// docs/MIL.md is the reference for every MIL builtin, each with an
// example runnable in cmd/moash via \milrun.
//
// bench_test.go and experiments_test.go in this directory regenerate the
// experiment suite documented in EXPERIMENTS.md (E1–E10).
package mirror
