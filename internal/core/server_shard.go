package core

// Shard-facing RPCs: the wire surface internal/dist's router and follower
// daemons drive. These ride the same "Mirror" service name as the client
// RPCs — a shard daemon IS a Mirror DBMS server, just one whose index
// lifecycle is driven remotely — so the dictionary, the transport and the
// per-call gate are shared. Every method requires the served Retriever to
// be a single *Mirror store; a router never serves these (routing through
// two router layers is a deployment error, refused loudly).

import (
	"bytes"
	"fmt"

	"mirror/internal/bat"
	"mirror/internal/dict"
	"mirror/internal/ir"
	"mirror/internal/media"
	"mirror/internal/moa"
)

// mirror unwraps the served Retriever as a single store; shard RPCs are
// meaningless against another router or an in-process sharded engine.
func (s *Service) mirror() (*Mirror, error) {
	m, ok := s.m.(*Mirror)
	if !ok {
		return nil, fmt.Errorf("core: shard RPC on a %T (shard daemons serve single stores)", s.m)
	}
	return m, nil
}

// ShardQueryArgs is one scatter leg of a router query, pinned to the
// epoch published under Tag so every shard answers from the same round.
type ShardQueryArgs struct {
	Stmt       Stmt      // the statement to run; StmtSource runs Source
	Source     string    // ad-hoc Moa text (StmtSource)
	Query      []string  // analysed query terms bound as `query`; nil = unbound
	Concepts   []string  // content concepts bound as `concepts`, one weight each in Weights
	Weights    []float64 // the concepts' weights (a plain dual query's are 1); nil = unbound
	K          int       // ranked top-k request; <= 0 = exhaustive
	Tag        uint64    // publish tag the reply must be served at
	ThetaFloor float64   // router's shared pruning threshold at send time
	ScanID     uint64    // non-zero: accept RaiseTheta pushes mid-scan under this id
}

// ShardQueryReply is one shard's leg of the scatter on the wire: rows
// already remapped to engine-global OIDs and (for unranked legs) already
// cut to the global top k, plus the pruning threshold reached — the
// router folds Theta into its shared rising threshold for the remaining
// legs. A row value travels as its float64 in Scores where it is one (all
// rows of the named statements) and rendered with %v in
// Values where it is not; Floats is nil when every value is a float64.
type ShardQueryReply struct {
	OIDs   []uint64
	Scores []float64
	Values []string
	Floats []bool
	Theta  float64 // pruning threshold after this leg (K > 0 only)
}

// ShardQuery evaluates one scatter leg at the epoch carrying args.Tag:
// the same leg an in-process engine runs, its threshold seeded at the
// router's floor and, under a ScanID, raisable mid-scan by RaiseTheta.
// args comes by pointer: net/rpc's dispatch copies a by-value argument
// of this size to the heap on every leg.
func (s *Service) ShardQuery(args *ShardQueryArgs, reply *ShardQueryReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	defer s.acquire()()
	ep, err := m.epochForTag(args.Tag)
	if err != nil {
		return err
	}
	var theta *bat.TopKThreshold
	if args.K > 0 {
		theta = bat.NewTopKThreshold()
		theta.Raise(args.ThetaFloor)
		if args.ScanID != 0 {
			defer registerScanTheta(args.ScanID, theta)()
		}
	}
	l, err := ep.leg(*args, theta, true)
	if err != nil {
		return err
	}
	if l.scalar != nil {
		return errScalarMerge
	}
	*reply = ShardQueryReply{Theta: l.theta}
	mixed := false
	for _, row := range l.rows {
		f, isF := row.Value.(float64)
		reply.OIDs = append(reply.OIDs, uint64(row.OID))
		reply.Scores = append(reply.Scores, f)
		mixed = mixed || !isF
	}
	if mixed {
		reply.Floats = make([]bool, len(l.rows))
		reply.Values = make([]string, len(l.rows))
		for i, row := range l.rows {
			if _, reply.Floats[i] = row.Value.(float64); !reply.Floats[i] {
				reply.Values[i] = fmt.Sprintf("%v", row.Value)
			}
		}
	}
	return nil
}

// RaiseThetaArgs streams one router-side threshold raise into a shard's
// in-flight scan (the leg that carried ScanID in its ShardQueryArgs).
type RaiseThetaArgs struct {
	ScanID uint64
	Theta  float64
}

// RaiseTheta lifts the pruning threshold of the scan registered under
// ScanID. Unknown ids are a benign no-op: the scan already drained, or
// the leg ran on a sibling replica (the router broadcasts to the whole
// replica set). The call deliberately bypasses the per-call gate — it
// must land WHILE the query it accelerates occupies a slot.
func (s *Service) RaiseTheta(args RaiseThetaArgs, _ *dict.Empty) error {
	if _, err := s.mirror(); err != nil {
		return err
	}
	raiseScanTheta(args.ScanID, args.Theta)
	return nil
}

// ShardIngestArgs routes one document to its home shard. Global is the
// engine-wide OID the router assigned (ingestion position across the
// whole collection) — the shard persists the local→global mapping.
type ShardIngestArgs struct {
	URL        string
	Annotation string
	PPM        []byte // raster as PPM bytes; empty = annotation-only document
	Global     uint64
}

// ShardIngestReply reports the shard-local library state after the insert.
type ShardIngestReply struct {
	Size    int // documents in this shard's library
	Pending int // shard documents not yet covered by its serving epoch
}

// ShardIngest ingests one router-assigned document into a shard member,
// WAL-logged (and replication-shipped) like any local insert.
func (s *Service) ShardIngest(args ShardIngestArgs, reply *ShardIngestReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	var img *media.Image
	if len(args.PPM) > 0 {
		img, err = media.DecodePPM(bytes.NewReader(args.PPM))
		if err != nil {
			return fmt.Errorf("core: decode PPM for %s: %v", args.URL, err)
		}
	}
	if err := m.addImageShard(args.URL, args.Annotation, img, args.Global); err != nil {
		return err
	}
	reply.Size, reply.Pending = m.Size(), m.Pending()
	return nil
}

// ShardPublishArgs is one shard's slice of a router publish round: the
// delta documents with their extracted content words, the engine-wide
// collection statistics every shard must score under, the frozen codebook
// (full builds) and the round's tag.
type ShardPublishArgs struct {
	URLs     []string
	Words    map[string][]string
	AnnStats *ir.GlobalStats
	ImgStats *ir.GlobalStats
	Codebook *Codebook
	Full     bool
	Tag      uint64
}

// ShardPublishReply reports the publish outcome on this shard.
type ShardPublishReply struct {
	NewDocs int   // documents newly covered on this shard
	Covered int   // shard documents covered after the publish
	Epoch   int64 // shard-local epoch sequence published
	Docs    int   // documents the published epoch covers
}

// ShardPublish applies one slice of a router publish round.
func (s *Service) ShardPublish(args ShardPublishArgs, reply *ShardPublishReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	st, err := m.ApplyShardPublish(args.URLs, args.Words, args.AnnStats, args.ImgStats, args.Codebook, args.Full, args.Tag)
	if err != nil {
		return err
	}
	reply.NewDocs, reply.Epoch, reply.Docs = st.NewDocs, st.Epoch, st.Docs
	reply.Covered = m.covered()
	return nil
}

// ShardStateReply is the router's probe of a shard daemon: coverage (to
// skip already-applied publish slices on retry), the served tag/epoch,
// role, and the replication stream position (followers).
type ShardStateReply struct {
	Size     int
	Covered  int
	Indexed  bool
	Tag      uint64 // publish tag of the serving epoch
	Epoch    int64
	Docs     int
	Follower bool
	Nonce    uint64 // replication: primary incarnation the store last applied
	Pos      uint64 // replication: stream position durably applied
}

// ShardState reports the shard's serving and replication state.
func (s *Service) ShardState(_ dict.Empty, reply *ShardStateReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	reply.Size = m.Size()
	reply.Covered = m.covered()
	reply.Indexed = m.Indexed()
	reply.Follower = m.IsFollower()
	if ep := m.currentEpoch(); ep != nil {
		reply.Tag, reply.Epoch, reply.Docs = ep.Tag, ep.Seq, ep.Docs
	}
	reply.Nonce, reply.Pos = m.ReplState()
	return nil
}

// WALShipArgs asks a primary for its replication stream from Since, as
// known under incarnation Nonce (0,0 on a fresh follower — which forces
// the resync path that establishes both).
type WALShipArgs struct {
	Nonce uint64
	Since uint64
}

// WALShipReply carries a bounded batch of stream records. Resync tells
// the follower its position is unservable (primary restarted, or the
// position lies beyond the stream) and it must pull a full ShardSync.
type WALShipReply struct {
	Recs   [][]byte
	Nonce  uint64
	Next   uint64 // stream position after Recs; pass as the next Since
	Resync bool
}

// WALShip serves the replication stream suffix to a follower.
func (s *Service) WALShip(args WALShipArgs, reply *WALShipReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	recs, nonce, next, resync, err := m.shipSince(args.Nonce, args.Since)
	if err != nil {
		return err
	}
	reply.Recs, reply.Nonce, reply.Next, reply.Resync = recs, nonce, next, resync
	return nil
}

// ShardSyncReply is a full resync stream synthesised from the primary's
// current state; applying it on any follower state converges. Nonce/Pos
// are where incremental WALShip pulls resume afterwards.
type ShardSyncReply struct {
	Recs  [][]byte
	Nonce uint64
	Pos   uint64
}

// ShardSync serves a full resync stream to a diverged or fresh follower.
func (s *Service) ShardSync(_ dict.Empty, reply *ShardSyncReply) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	recs, nonce, pos, err := m.shipGenesis()
	if err != nil {
		return err
	}
	reply.Recs, reply.Nonce, reply.Pos = recs, nonce, pos
	return nil
}

// ReinforceArgs applies one thesaurus reinforcement (the router routes
// session feedback to shard 0's primary, mirroring the in-process
// engine's routing).
type ReinforceArgs struct {
	Words    []string
	Concepts []string
	Relevant bool
}

// Reinforce applies one WAL-logged thesaurus reinforcement.
func (s *Service) Reinforce(args ReinforceArgs, _ *dict.Empty) error {
	m, err := s.mirror()
	if err != nil {
		return err
	}
	return m.reinforceLogged(args.Words, args.Concepts, args.Relevant)
}

// TopologyReply describes the serving topology behind this server.
type TopologyReply struct{ Desc string }

// Topology reports the served Retriever's place in the topology (moash
// \topology against a remote server).
func (s *Service) Topology(_ dict.Empty, reply *TopologyReply) error {
	reply.Desc = s.m.Topology()
	return nil
}

// ---- typed client surface (internal/dist) ----

// ShardQuery runs one scatter leg against a shard daemon and decodes the
// reply into the leg the gather merges.
func (c *Client) ShardQuery(args ShardQueryArgs) (*ShardLeg, error) {
	reply, err := request[ShardQueryReply](c, "Mirror.ShardQuery", args)
	if err != nil {
		return nil, err
	}
	l := &ShardLeg{theta: reply.Theta, rows: make([]moa.Row, len(reply.OIDs))}
	for i, oid := range reply.OIDs {
		l.rows[i] = moa.Row{OID: bat.OID(oid), Value: reply.Scores[i]}
		if reply.Floats != nil && !reply.Floats[i] {
			l.rows[i].Value = reply.Values[i]
		}
	}
	return l, nil
}

// RaiseTheta streams a threshold raise into an in-flight scatter leg.
func (c *Client) RaiseTheta(scanID uint64, theta float64) error {
	_, err := request[dict.Empty](c, "Mirror.RaiseTheta", RaiseThetaArgs{ScanID: scanID, Theta: theta})
	return err
}

// ShardIngest routes one document to its home shard.
func (c *Client) ShardIngest(url, annotation string, ppm []byte, global uint64) (*ShardIngestReply, error) {
	return request[ShardIngestReply](c, "Mirror.ShardIngest", ShardIngestArgs{URL: url, Annotation: annotation, PPM: ppm, Global: global})
}

// ShardPublish applies one slice of a publish round on a shard daemon.
func (c *Client) ShardPublish(args ShardPublishArgs) (*ShardPublishReply, error) {
	return request[ShardPublishReply](c, "Mirror.ShardPublish", args)
}

// ShardState probes a shard daemon's serving and replication state.
func (c *Client) ShardState() (*ShardStateReply, error) {
	return request[ShardStateReply](c, "Mirror.ShardState", dict.Empty{})
}

// WALShip pulls a batch of replication stream records from a primary.
func (c *Client) WALShip(nonce, since uint64) (*WALShipReply, error) {
	return request[WALShipReply](c, "Mirror.WALShip", WALShipArgs{Nonce: nonce, Since: since})
}

// ShardSync pulls a full resync stream from a primary.
func (c *Client) ShardSync() (*ShardSyncReply, error) {
	return request[ShardSyncReply](c, "Mirror.ShardSync", dict.Empty{})
}

// Reinforce applies one thesaurus reinforcement on the remote store.
func (c *Client) Reinforce(words, concepts []string, relevant bool) error {
	_, err := request[dict.Empty](c, "Mirror.Reinforce", ReinforceArgs{Words: words, Concepts: concepts, Relevant: relevant})
	return err
}

// Topology asks the remote server for its serving topology.
func (c *Client) Topology() (string, error) {
	reply, err := request[TopologyReply](c, "Mirror.Topology", dict.Empty{})
	return reply.Desc, err
}
