package core

// EpochStamp identifies the published snapshot a query answer was served
// from: the monotone epoch sequence number and the number of documents
// the epoch covers (crash gaps excluded, so Docs always equals the length
// of the ingest-order prefix the epoch indexed). The zero stamp means the
// answer came from the live pre-index database (no epoch published yet).
//
// The stamp is taken from the SAME pinned epoch the query evaluated
// against — not from a separate load, which could race with a concurrent
// publish and mislabel the answer. The load harness's exactness oracle
// relies on this: a stamped reply must be bit-exact for the one-shot
// index over the first Docs ingested documents.
type EpochStamp struct {
	Seq  int64
	Docs int
}

// stamp derives the wire stamp of a pinned standalone epoch.
func (ep *IndexEpoch) stamp() EpochStamp { return EpochStamp{Seq: ep.Seq, Docs: ep.Docs} }
