package core

import (
	"bytes"
	"fmt"
	"net"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"time"

	"mirror/internal/bat"
	"mirror/internal/dict"
	"mirror/internal/media"
	"mirror/internal/moa"
	"mirror/internal/storage"
	"mirror/internal/thesaurus"
)

// This file is the network face of the Mirror DBMS (cmd/mirrord): clients
// of Figure 1 reach the meta-data database through the same RPC transport
// the daemons use, and find it through the data dictionary.
//
// Queries execute concurrently: net/rpc dispatches every request in its own
// goroutine and the query path is read-only over immutable BATs (hash
// indexes build atomically), so independent queries genuinely overlap. The
// gate below bounds how many run at once so heavy traffic degrades to
// queueing instead of oversubscribing the cores. A query runs on its
// handler goroutine from Moa down to the block scan, so concurrency across
// queries is the only parallelism on the read path.

// Retriever is the serving surface of the Mirror DBMS: one store
// (*Mirror), an in-process sharded engine (*ShardedEngine) or a networked
// router (dist.RouterEngine). Each answers its queries through an embedded
// *Gather. The RPC service and the shells run against it, so clients
// cannot tell how many stores answer their queries — routing is
// transparent.
type Retriever interface {
	AddImage(url, annotation string, img *media.Image) error
	AddRaster(url string, img *media.Image) error
	BuildContentIndex(opts IndexOptions) error
	BuildContentIndexDistributed(opts IndexOptions, dictAddr string) error
	Run(q Query) ([]Hit, EpochStamp, error)
	QueryTopKStamped(src string, queryTerms []string, k int) (*moa.Result, EpochStamp, error)
	ServingEpoch() (EpochStamp, bool)
	ExpandQuery(text string, topK int) []string
	NewSession(text string) (Session, error)
	SessionFeedback(s Session, relevant, nonrelevant []bat.OID) (Session, error)
	SetResultCache(maxBytes int64)
	SetThetaMemo(maxEntries int)
	Topology() string
	ContentTerms(oid bat.OID) []string
	Size() int
	Pending() int
	URLs() []string
	Indexed() bool
	Current() bool
	Refresh() (RefreshStats, error)
	Segments() []SegmentsInfo
	PostingsStats() PostingsStats
	SchemaSource() string
	Thesaurus() *thesaurus.Thesaurus
	Persistent() bool
	Checkpoint() (storage.CheckpointStats, error)
	ClosePersistent() error
}

// Service exposes a Retriever over net/rpc under the name "Mirror".
type Service struct {
	m    Retriever
	gate chan struct{}
}

// defaultQueryGate is the default cap on concurrently executing queries.
func defaultQueryGate() int {
	n := 2 * runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	return n
}

// acquire claims a query slot; the returned func releases it.
func (s *Service) acquire() func() {
	if s.gate == nil {
		return func() {}
	}
	s.gate <- struct{}{}
	return func() { <-s.gate }
}

// WireHit mirrors Hit with wire-safe types.
type WireHit struct {
	OID   uint64
	URL   string
	Score float64
}

// TextQueryReply is the ranked RPC's reply: the ranking, stamped with the
// published epoch it was served from (Epoch 0 only before the first
// publish, which Run rejects — so replies always carry a real stamp).
// EpochDocs is the number of documents that epoch covers: external
// exactness checkers compare the ranking against a reference build over
// the first EpochDocs ingested documents.
type TextQueryReply struct {
	Hits      []WireHit
	Epoch     int64
	EpochDocs int
}

// MoaQueryArgs carries a raw Moa query plus optional query-term bindings.
// K > 0 pushes a ranked top-k request into the query plan and returns at
// most the k best rows, ranked — pruned or exhaustive plan alike (every
// Retriever's QueryTopKStamped ranks and cuts).
type MoaQueryArgs struct {
	Source     string
	QueryTerms []string
	K          int
}

// MoaQueryReply returns rows rendered as strings (OID plus value), enough
// for the demo clients; richer clients use the Go API. Epoch/EpochDocs
// stamp the snapshot the plan ran against (zero on the pre-index
// live-database fallback).
type MoaQueryReply struct {
	Scalar    string
	OIDs      []uint64
	Values    []string
	Epoch     int64
	EpochDocs int
}

// SchemaReply returns the DDL of the served database.
type SchemaReply struct{ Source string }

// Run is the ranked RPC. The query arrives by pointer: by value it is too
// wide for registers, and net/rpc's reflect call would allocate a frame.
func (s *Service) Run(q *Query, reply *TextQueryReply) error {
	defer s.acquire()()
	hits, st, err := s.m.Run(*q)
	if err != nil {
		return err
	}
	reply.Epoch, reply.EpochDocs = st.Seq, st.Docs
	reply.Hits = wireHits(hits)
	return nil
}

// MoaQuery executes a raw Moa query; args.K > 0 requests a ranked top-k.
func (s *Service) MoaQuery(args MoaQueryArgs, reply *MoaQueryReply) error {
	defer s.acquire()()
	res, st, err := s.m.QueryTopKStamped(args.Source, args.QueryTerms, args.K)
	if err != nil {
		return err
	}
	reply.Epoch, reply.EpochDocs = st.Seq, st.Docs
	if res.Rows == nil {
		reply.Scalar = fmt.Sprintf("%v", res.Scalar)
		return nil
	}
	for _, row := range res.Rows {
		reply.OIDs = append(reply.OIDs, uint64(row.OID))
		reply.Values = append(reply.Values, fmt.Sprintf("%v", row.Value))
	}
	return nil
}

// Schema returns the database schema.
func (s *Service) Schema(_ dict.Empty, reply *SchemaReply) error {
	reply.Source = s.m.SchemaSource()
	return nil
}

// CheckpointReply reports what a remote-triggered checkpoint wrote.
type CheckpointReply struct {
	Written int   // BATs whose heap files were rewritten
	Skipped int   // clean BATs carried over untouched
	Bytes   int64 // heap-file bytes written
}

// Checkpoint flushes dirty BATs to the store and truncates the WAL;
// operators use it to bound recovery time without restarting. Errors on
// a server not opened with OpenPersistent.
func (s *Service) Checkpoint(_ dict.Empty, reply *CheckpointReply) error {
	st, err := s.m.Checkpoint()
	if err != nil {
		return err
	}
	reply.Written, reply.Skipped, reply.Bytes = st.Written, st.Skipped, st.Bytes
	return nil
}

// RefreshReply reports what a remote-triggered Refresh published.
type RefreshReply struct {
	NewDocs  int   // documents newly covered
	Docs     int   // documents covered after the publish
	Epoch    int64 // published epoch number
	Merges   int   // segment compactions applied
	Segments int   // max segment count after compaction
}

// Refresh incrementally indexes every document ingested since the last
// publish and swaps in a new snapshot epoch; queries are never blocked.
// mirrord drives this periodically via -refresh-every, and operators can
// force it between ticks.
func (s *Service) Refresh(_ dict.Empty, reply *RefreshReply) error {
	st, err := s.m.Refresh()
	if err != nil {
		return err
	}
	reply.NewDocs, reply.Docs, reply.Epoch = st.NewDocs, st.Docs, st.Epoch
	reply.Merges, reply.Segments = st.Merges, st.Segments
	return nil
}

// AddImageArgs carries one document over the wire: URL, annotation and
// the raster as PPM bytes (decoded server-side, so the wire format is the
// media server's own).
type AddImageArgs struct {
	URL        string
	Annotation string
	PPM        []byte
}

// AddImageReply reports the library state after the insert.
type AddImageReply struct {
	Size    int // documents in the library
	Pending int // documents not yet covered by the serving epoch
}

// AddImage ingests one document over RPC: the insert is WAL-logged
// exactly like a crawled one and becomes retrievable at the next Refresh
// publish. Load generators use this to drive ingest without a re-crawl.
func (s *Service) AddImage(args AddImageArgs, reply *AddImageReply) error {
	img, err := media.DecodePPM(bytes.NewReader(args.PPM))
	if err != nil {
		return fmt.Errorf("core: decode PPM for %s: %v", args.URL, err)
	}
	if err := s.m.AddImage(args.URL, args.Annotation, img); err != nil {
		return err
	}
	reply.Size, reply.Pending = s.m.Size(), s.m.Pending()
	return nil
}

// StatsReply is a point-in-time operational snapshot of the served store
// (moash \stats, the load harness's oracle bookkeeping).
type StatsReply struct {
	Size      int   // documents ingested
	Pending   int   // ingested but not covered by the serving epoch
	Indexed   bool  // a content index epoch has been published
	Current   bool  // the serving epoch covers every ingested document
	Epoch     int64 // serving epoch sequence (0 before the first publish)
	EpochDocs int   // documents the serving epoch covers

	// Cumulative block-max scan counters (monotone since process start;
	// on a router, a best-effort sum over reachable shard primaries).
	BlocksDecoded int64
	BlocksSkipped int64
}

// blockScanReporter is the optional engine hook behind StatsReply's scan
// counters: engines whose scans run in other processes (the distributed
// router) implement it to aggregate; everyone else gets the process-wide
// bat counters, which every in-process store shares.
type blockScanReporter interface {
	BlockScanStats() (decoded, skipped int64)
}

// Stats reports the serving state. The epoch stamp only brackets
// concurrently running queries (each pins its own epoch); per-answer
// stamps ride on the query replies themselves.
func (s *Service) Stats(_ dict.Empty, reply *StatsReply) error {
	st, _ := s.m.ServingEpoch()
	reply.Size = s.m.Size()
	reply.Pending = s.m.Pending()
	reply.Indexed = s.m.Indexed()
	reply.Current = s.m.Current()
	reply.Epoch, reply.EpochDocs = st.Seq, st.Docs
	if r, ok := s.m.(blockScanReporter); ok {
		reply.BlocksDecoded, reply.BlocksSkipped = r.BlockScanStats()
	} else {
		reply.BlocksDecoded, reply.BlocksSkipped = bat.BlockScanStats()
	}
	return nil
}

// SessionStartArgs opens a relevance-feedback session for a text query.
type SessionStartArgs struct{ Text string }

// SessionStart opens a feedback session (Section 5.2's interactive loop)
// and replies with its state, which the client holds and sends back with
// every later call — a round is a Run of Session.Query: the server keeps
// nothing per session, so a session survives a server restart.
func (s *Service) SessionStart(args SessionStartArgs, reply *Session) error {
	sess, err := s.m.NewSession(args.Text)
	*reply = sess
	return err
}

// wireHits converts a ranking for the wire, sized up front.
func wireHits(hits []Hit) []WireHit {
	out := make([]WireHit, len(hits))
	for i, h := range hits {
		out[i] = WireHit{OID: uint64(h.OID), URL: h.URL, Score: h.Score}
	}
	return out
}

// SessionFeedbackArgs applies one round of relevance judgments.
type SessionFeedbackArgs struct {
	Session     Session
	Relevant    []uint64 // OIDs judged relevant
	Nonrelevant []uint64 // OIDs judged non-relevant
}

// SessionFeedback applies judgments and replies with the advanced
// session: its content weights move Rocchio-style, and the thesaurus
// reinforcement is WAL-logged on persistent stores.
func (s *Service) SessionFeedback(args SessionFeedbackArgs, reply *Session) error {
	next, err := s.m.SessionFeedback(args.Session, toOIDs(args.Relevant), toOIDs(args.Nonrelevant))
	*reply = next
	return err
}

// toOIDs converts wire OIDs.
func toOIDs(in []uint64) []bat.OID {
	out := make([]bat.OID, len(in))
	for i, v := range in {
		out[i] = bat.OID(v)
	}
	return out
}

// Serve runs the Mirror DBMS server on addr ("127.0.0.1:0" for ephemeral)
// and registers it with the dictionary when dictAddr is non-empty. It
// returns the bound address and a stop function.
func (m *Mirror) Serve(addr, dictAddr string) (string, func(), error) {
	return Serve(m, addr, dictAddr)
}

// Serve runs the RPC server for any Retriever — a single store, a
// sharded engine or a distributed router; the wire protocol is identical
// either way. The returned stop function closes the listener and then
// DRAINS: it waits (bounded) for every in-flight RPC handler to write its
// response before returning, so stopping a server never strands a client
// mid-call with a torn connection.
func Serve(r Retriever, addr, dictAddr string) (string, func(), error) {
	return ServeAs(r, addr, dictAddr, "dbms", "mirror-dbms")
}

// serveDrainTimeout bounds how long a stop function waits for in-flight
// RPC handlers; a handler wedged past this is abandoned (the process is
// exiting anyway).
const serveDrainTimeout = 5 * time.Second

// ServeAs is Serve with an explicit dictionary identity: shard daemons
// register as kind "mirror-shard" under their layout position, so the
// router discovers members without static addressing. Only the "dbms"
// kind publishes its schema to the dictionary — shard members must not
// overwrite the engine-wide entry.
func ServeAs(r Retriever, addr, dictAddr, kind, name string) (string, func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("core: listen %s: %w", addr, err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Mirror", &Service{m: r, gate: make(chan struct{}, defaultQueryGate())}); err != nil {
		l.Close()
		return "", nil, err
	}
	// Register before serving: a peer that finds this address in the
	// dictionary must find the server answering, and no call may be
	// answered before the dictionary knows the server (a router's
	// discovery would otherwise miss a member its caller already saw
	// serving). Connections that arrive meanwhile wait in the listen
	// backlog.
	if dictAddr != "" {
		dc, err := dict.Dial(dictAddr)
		if err != nil {
			l.Close()
			return "", nil, err
		}
		defer dc.Close()
		if err := dc.Register(dict.DaemonInfo{
			Name: name, Kind: kind, Addr: l.Addr().String(),
		}); err != nil {
			l.Close()
			return "", nil, err
		}
		if kind == "dbms" {
			if err := dc.SetSchema(r.SchemaSource()); err != nil {
				l.Close()
				return "", nil, err
			}
		}
	}
	drain := &rpcDrain{}
	// On stop, handlers already computing drain first: their replies
	// reach the wire before the connections drop.
	stop := dict.ServeConns(l,
		func(conn net.Conn) { srv.ServeCodec(newCountedServerCodec(conn, drain)) },
		func() { drain.wait(serveDrainTimeout) })
	return l.Addr().String(), stop, nil
}

// rpcDrain counts in-flight RPC handlers so a stopping server can wait
// for responses already being computed to reach the wire. A handler is
// in flight from the moment its request header is read until its
// response is written (net/rpc writes a response — real or error — for
// every successfully read header, so the count is balanced).
type rpcDrain struct {
	mu      sync.Mutex
	pending int
	done    chan struct{} // non-nil while a drain waits; closed at pending==0
}

func (d *rpcDrain) start() {
	d.mu.Lock()
	d.pending++
	d.mu.Unlock()
}

func (d *rpcDrain) finish() {
	d.mu.Lock()
	d.pending--
	if d.pending == 0 && d.done != nil {
		close(d.done)
		d.done = nil
	}
	d.mu.Unlock()
}

// wait blocks until no handler is in flight, or the timeout passes.
func (d *rpcDrain) wait(timeout time.Duration) {
	d.mu.Lock()
	if d.pending == 0 {
		d.mu.Unlock()
		return
	}
	if d.done == nil {
		d.done = make(chan struct{})
	}
	ch := d.done
	d.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
}

// countedServerCodec marks a request in flight when its header is read
// and done when its response is written, feeding the drain.
type countedServerCodec struct {
	rpc.ServerCodec
	d *rpcDrain
}

func newCountedServerCodec(conn net.Conn, d *rpcDrain) rpc.ServerCodec {
	return &countedServerCodec{ServerCodec: newWireServerCodec(conn), d: d}
}

func (c *countedServerCodec) ReadRequestHeader(r *rpc.Request) error {
	err := c.ServerCodec.ReadRequestHeader(r)
	if err == nil {
		c.d.start()
	}
	return err
}

func (c *countedServerCodec) WriteResponse(r *rpc.Response, body any) error {
	defer c.d.finish()
	return c.ServerCodec.WriteResponse(r, body)
}

// Client is a typed client for a remote Mirror DBMS.
type Client struct {
	c *rpc.Client
	// timeout bounds each call; 0 waits forever. A timed-out call closes
	// the connection (net/rpc has no per-call cancel), so the Client is
	// dead afterwards — exactly what the router's replica failover wants.
	timeout time.Duration
}

// DialMirror connects directly to a Mirror DBMS address.
func DialMirror(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: dial %s: %w", addr, err)
	}
	return &Client{c: newWireClient(conn)}, nil
}

// DialMirrorTimeout is DialMirror with a bound on connection establishment
// and every subsequent call (SetCallTimeout).
func DialMirrorTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("core: dial %s: %w", addr, err)
	}
	return &Client{c: newWireClient(conn), timeout: d}, nil
}

// SetCallTimeout bounds every subsequent call on this client; 0 restores
// unbounded calls.
func (c *Client) SetCallTimeout(d time.Duration) { c.timeout = d }

// call issues one RPC, honouring the call timeout. On timeout the
// connection is closed: net/rpc cannot cancel a single in-flight call,
// and a half-dead connection must look like a transport failure so
// callers fail over instead of hanging.
func (c *Client) call(method string, args, reply any) error {
	if c.timeout <= 0 {
		return c.c.Call(method, args, reply)
	}
	call := c.c.Go(method, args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-t.C:
		c.c.Close()
		<-call.Done
		if call.Error == nil {
			return nil // completed as the timer fired
		}
		return fmt.Errorf("core: %s timed out after %v", method, c.timeout)
	}
}

// DiscoverMirror finds the DBMS through the data dictionary and connects.
func DiscoverMirror(dictAddr string) (*Client, error) {
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		return nil, err
	}
	defer dc.Close()
	infos, err := dc.List("dbms")
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: no Mirror DBMS registered in the dictionary")
	}
	return DialMirror(infos[0].Addr)
}

// Close releases the connection.
func (c *Client) Close() error { return c.c.Close() }

// remoteError re-types a well-known server failure carried over the wire
// (net/rpc transmits errors as bare strings): the message stays verbatim,
// while Unwrap lets callers errors.Is against the local sentinel — moash
// uses this to print the BuildContentIndex remediation hint for remote
// stores exactly as for local ones.
type remoteError struct {
	msg  string
	base error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.base }

// wireErr maps recognised server error strings back to typed errors.
// Because the message stays verbatim, re-typing composes across hops: a
// router that returns a shard's error to its own client produces the
// same message, and the second wireErr re-types it identically.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	for _, base := range []error{ErrNotIndexed, ErrEpochRetired, ErrFollower, ErrUnknownStmt} {
		if strings.Contains(msg, base.Error()) {
			return &remoteError{msg: msg, base: base}
		}
	}
	return err
}

// request sends one call and returns its reply, re-typing a recognised
// server error (wireErr). Every Client call goes through it.
func request[R any](c *Client, method string, args any) (*R, error) {
	reply := new(R)
	return reply, wireErr(c.call(method, args, reply))
}

// Run runs one ranked query on the remote engine.
func (c *Client) Run(q Query) (*TextQueryReply, error) {
	return request[TextQueryReply](c, "Mirror.Run", q)
}

// TextQuery runs a ranked annotation (or dual-coding) query.
func (c *Client) TextQuery(text string, k int, dual bool) ([]WireHit, error) {
	reply, err := c.TextQueryStamped(text, k, dual)
	return reply.Hits, err
}

// TextQueryStamped is TextQuery returning the full reply, including the
// epoch stamp of the snapshot the answer was served from.
func (c *Client) TextQueryStamped(text string, k int, dual bool) (*TextQueryReply, error) {
	q := Query{Stmt: StmtAnnotation, Text: text, K: k}
	if dual {
		q.Stmt = StmtDual
	}
	return c.Run(q)
}

// AddImage ingests one document (PPM raster bytes) into the remote store.
func (c *Client) AddImage(url, annotation string, ppm []byte) (*AddImageReply, error) {
	return request[AddImageReply](c, "Mirror.AddImage", AddImageArgs{URL: url, Annotation: annotation, PPM: ppm})
}

// Stats fetches the remote serving-state snapshot.
func (c *Client) Stats() (*StatsReply, error) {
	return request[StatsReply](c, "Mirror.Stats", dict.Empty{})
}

// NewSession opens a remote relevance-feedback session; the caller holds
// the returned state, runs a round with Run(s.Query(k)) and advances it
// with SessionFeedback.
func (c *Client) NewSession(text string) (Session, error) {
	reply, err := request[Session](c, "Mirror.SessionStart", SessionStartArgs{Text: text})
	return *reply, err
}

// SessionFeedback applies one round of relevance judgments and returns the
// advanced session.
func (c *Client) SessionFeedback(s Session, relevant, nonrelevant []uint64) (Session, error) {
	reply, err := request[Session](c, "Mirror.SessionFeedback",
		SessionFeedbackArgs{Session: s, Relevant: relevant, Nonrelevant: nonrelevant})
	return *reply, err
}

// MoaQuery runs a raw Moa query.
func (c *Client) MoaQuery(src string, queryTerms []string) (*MoaQueryReply, error) {
	return c.MoaQueryTopK(src, queryTerms, 0)
}

// MoaQueryTopK runs a raw Moa query with a ranked top-k request pushed
// down to the server's plan optimizer.
func (c *Client) MoaQueryTopK(src string, queryTerms []string, k int) (*MoaQueryReply, error) {
	return request[MoaQueryReply](c, "Mirror.MoaQuery", MoaQueryArgs{Source: src, QueryTerms: queryTerms, K: k})
}

// Refresh asks the remote DBMS to incrementally index pending documents
// and publish a new epoch.
func (c *Client) Refresh() (*RefreshReply, error) {
	return request[RefreshReply](c, "Mirror.Refresh", dict.Empty{})
}

// Schema fetches the remote schema.
func (c *Client) Schema() (string, error) {
	reply, err := request[SchemaReply](c, "Mirror.Schema", dict.Empty{})
	return reply.Source, err
}

// Checkpoint asks the remote DBMS to flush dirty BATs to its store.
func (c *Client) Checkpoint() (*CheckpointReply, error) {
	return request[CheckpointReply](c, "Mirror.Checkpoint", dict.Empty{})
}
