package load

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mirror/internal/core"
	"mirror/internal/dict"
	"mirror/internal/mediaserver"
)

// Options configures one harness run against one topology.
type Options struct {
	Spec     Spec
	Bin      string // mirrord binary to supervise
	StoreDir string // daemon -store directory (fresh per run)
	Shards   int    // <=1: single store; else sharded topology
	Replicas int    // >0: networked router over Shards shard daemons with this many stores each
	Topology string // report label; derived from Shards/Replicas when empty

	Duration        time.Duration // steady-state workload window
	QueryWorkers    int
	FeedbackWorkers int
	K               int           // top-k for ranked queries
	Faults          []Fault       // injected at evenly spaced points in the window
	RefreshEvery    time.Duration // harness-driven publish cadence
	CheckpointEvery time.Duration // harness-driven checkpoint cadence

	Logf func(format string, args ...any) // optional narrator; nil = silent
}

func (o *Options) defaults() {
	if o.Replicas > 0 && o.Shards < 1 {
		o.Shards = 1
	}
	if o.Shards > 1 {
		o.Spec.Shards = o.Shards
	}
	if o.Topology == "" {
		switch {
		case o.Replicas > 0:
			o.Topology = fmt.Sprintf("distributed-%dx%d", o.Shards, o.Replicas)
		case o.Shards > 1:
			o.Topology = fmt.Sprintf("sharded-%d", o.Shards)
		default:
			o.Topology = "single"
		}
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.QueryWorkers <= 0 {
		o.QueryWorkers = 4
	}
	if o.FeedbackWorkers <= 0 {
		o.FeedbackWorkers = 2
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.RefreshEvery <= 0 {
		o.RefreshEvery = 400 * time.Millisecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 900 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// metrics aggregates per-op-class latency histograms and error counts.
// One mutex for everything: the critical section is nanoseconds against
// RPC round trips of microseconds to milliseconds.
type metrics struct {
	mu         sync.Mutex
	hists      map[string]*Hist
	errs       map[string]uint64
	checked    uint64
	violations uint64
	firstViol  error
}

func newMetrics() *metrics {
	return &metrics{hists: map[string]*Hist{}, errs: map[string]uint64{}}
}

func (m *metrics) observe(op string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[op]
	if h == nil {
		h = &Hist{}
		m.hists[op] = h
	}
	h.Observe(uint64(d.Microseconds()))
}

func (m *metrics) fail(op string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.errs[op]++
}

func (m *metrics) verified(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checked++
	if err != nil {
		m.violations++
		if m.firstViol == nil {
			m.firstViol = err
		}
	}
}

// rpcWorker is one worker's connection, redialed lazily after any error —
// mid-run kills sever every connection, and recovery is "dial again".
type rpcWorker struct {
	addr string
	c    *core.Client
}

func (w *rpcWorker) client() (*core.Client, error) {
	if w.c == nil {
		c, err := core.DialMirror(w.addr)
		if err != nil {
			return nil, err
		}
		w.c = c
	}
	return w.c, nil
}

func (w *rpcWorker) drop() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// stopped polls the stop channel without blocking.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// freeAddr reserves an ephemeral localhost port and releases it, so the
// daemon can bind the same fixed address across every restart.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// Run executes the scenario against a live supervised mirrord: media
// server and dictionary in-process, the daemon as a child process driven
// over its real RPC surface by closed-loop workers, faults injected
// mid-run, and every stamped annotation-query answer verified bit-exact
// against the oracle's one-shot rebuild of the answering epoch's prefix.
//
// The scenario is synthesized here, not passed in: shard-skew name search
// hashes full URLs, so synthesis needs the live media server's base URL.
func Run(o Options) (*TopologyReport, error) {
	o.defaults()
	spec := o.Spec

	dictAddr, stopDict, err := dict.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer stopDict()

	// Listen before synthesizing: the base URL is an input of synthesis.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + l.Addr().String()
	sc, err := Synthesize(spec, base)
	if err != nil {
		l.Close()
		return nil, err
	}

	// Media server and oracle learn every document before the daemon can:
	// preload now, stream documents inside the ingest worker below. That
	// ordering is what keeps post-crash re-crawls prefix-shaped.
	oracle := core.NewOracle()
	media := mediaserver.NewServer(nil)
	for i := 0; i < spec.Preload; i++ {
		it := sc.Docs[i].Item(sc.BaseURL, spec.W, spec.H)
		media.Add(it)
		oracle.AddDoc(it.URL, it.Annotation)
	}
	srv := &http.Server{Handler: media}
	go srv.Serve(l)
	defer srv.Close()

	if o.Replicas > 0 {
		return runDistributed(o, sc, oracle, media, dictAddr)
	}

	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-dict", dictAddr, "-media", base, "-addr", addr,
		"-store", o.StoreDir, "-local-pipeline", "-wal-sync",
		"-refresh-every", "0", "-checkpoint-every", "0",
	}
	if o.Shards > 1 {
		args = append(args, "-shards", strconv.Itoa(o.Shards))
	}
	d := &Daemon{Bin: o.Bin, Args: args, Addr: addr}
	o.Logf("load[%s]: starting %s (%d preloaded docs)", o.Topology, o.Bin, spec.Preload)
	if err := d.Start(); err != nil {
		return nil, err
	}
	defer d.Kill() // no-op after a clean Stop
	if err := d.WaitReady(2 * time.Minute); err != nil {
		return nil, err
	}

	met := newMetrics()
	stop, wg := startWorkers(o, sc, media, oracle, addr, met)

	faults, err := faultWindow(o, stop, wg, func(f Fault) (*FaultReport, error) {
		return Inject(d, f, o.StoreDir)
	})
	if err != nil {
		return nil, err
	}

	st, err := quiesce(o, sc, oracle, addr, met)
	if err != nil {
		return nil, err
	}
	if err := d.Stop(30 * time.Second); err != nil {
		return nil, fmt.Errorf("load: shutdown: %w", err)
	}
	return buildReport(o, met, faults, st)
}

// startWorkers launches the closed-loop workload against one RPC address
// (a standalone daemon or the distributed router — same surface either
// way), returning the stop channel and waitgroup that control it.
func startWorkers(o Options, sc *Scenario, media *mediaserver.Server, oracle *core.Oracle, addr string, met *metrics) (chan struct{}, *sync.WaitGroup) {
	stop := make(chan struct{})
	wg := &sync.WaitGroup{}
	for i := 0; i < o.QueryWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queryWorker(i, o, sc, oracle, addr, met, stop)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingestWorker(o, sc, media, oracle, addr, met, stop)
	}()
	for i := 0; i < o.FeedbackWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feedbackWorker(i, o, sc, addr, met, stop)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tickWorker("refresh", o.RefreshEvery, addr, met, stop,
			func(c *core.Client) error { _, err := c.Refresh(); return err })
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tickWorker("checkpoint", o.CheckpointEvery, addr, met, stop,
			func(c *core.Client) error { _, err := c.Checkpoint(); return err })
	}()
	return stop, wg
}

// faultWindow serves the steady-state window with faults injected at
// evenly spaced points (the window's remainder runs out after the last
// recovery), then stops the workers. The injector is topology-specific.
func faultWindow(o Options, stop chan struct{}, wg *sync.WaitGroup, inject func(Fault) (*FaultReport, error)) ([]*FaultReport, error) {
	faults := make([]*FaultReport, 0, len(o.Faults))
	start := time.Now()
	for i, f := range o.Faults {
		at := time.Duration(float64(o.Duration) * float64(i+1) / float64(len(o.Faults)+1))
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		o.Logf("load[%s]: injecting fault %s", o.Topology, f)
		fr, err := inject(f)
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		o.Logf("load[%s]: recovered from %s in %v (torn tail logged: %v)",
			o.Topology, f, fr.Downtime.Round(time.Millisecond), fr.TornTailSeen)
		faults = append(faults, fr)
	}
	if rest := o.Duration - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	wg.Wait()
	return faults, nil
}

// buildReport folds the run's metrics into the topology report, failing
// the run if the oracle ever disagreed with a served answer.
func buildReport(o Options, met *metrics, faults []*FaultReport, st *core.StatsReply) (*TopologyReport, error) {
	rep := &TopologyReport{
		Topology:   o.Topology,
		Spec:       o.Spec,
		Ops:        map[string]OpReport{},
		Faults:     faults,
		FinalDocs:  st.EpochDocs,
		FinalEpoch: st.Epoch,
		Restarts:   len(faults),

		BlocksDecoded: st.BlocksDecoded,
		BlocksSkipped: st.BlocksSkipped,
	}
	met.mu.Lock()
	for op, h := range met.hists {
		rep.Ops[op] = summarize(h, met.errs[op])
	}
	for op, e := range met.errs {
		if _, ok := rep.Ops[op]; !ok {
			rep.Ops[op] = OpReport{Errors: e}
		}
	}
	rep.Oracle = OracleReport{Checked: met.checked, Violations: met.violations}
	viol := met.firstViol
	met.mu.Unlock()
	if viol != nil {
		return rep, fmt.Errorf("load: oracle violation (%d of %d checks): %w",
			rep.Oracle.Violations, rep.Oracle.Checked, viol)
	}
	return rep, nil
}

// queryWorker hammers ranked queries, alternating annotation-only and
// dual-coding. Annotation answers are stamped with the serving epoch and
// verified against the oracle; dual-coding answers depend on the content
// pipeline and are exercised for load and stability only.
func queryWorker(i int, o Options, sc *Scenario, oracle *core.Oracle, addr string, met *metrics, stop <-chan struct{}) {
	w := &rpcWorker{addr: addr}
	defer w.drop()
	sample := sc.Sampler(sc.Spec.Seed ^ int64(0x5151*(i+1)))
	dual := i%2 == 1
	for !stopped(stop) {
		q := sample()
		dual = !dual
		op, stmt := "query", core.StmtAnnotation
		if dual {
			op, stmt = "query_dual", core.StmtDual
		}
		c, err := w.client()
		if err != nil {
			met.fail(op)
			sleepOrStop(stop, 20*time.Millisecond)
			continue
		}
		t0 := time.Now()
		reply, err := c.Run(core.Query{Stmt: stmt, Text: q.Text, K: o.K})
		if err != nil {
			met.fail(op)
			w.drop()
			continue
		}
		met.observe(op, time.Since(t0))
		if !dual && reply.EpochDocs > 0 {
			met.verified(oracle.VerifyHits(reply.EpochDocs, q.Text, o.K, reply.Hits))
		}
	}
}

// ingestWorker streams the post-preload documents in bursts, in order,
// alone: a single writer keeps "media server, then oracle, then RPC" a
// strict per-document sequence, so the collection is always a prefix of
// the scenario stream no matter where a crash lands.
func ingestWorker(o Options, sc *Scenario, media *mediaserver.Server, oracle *core.Oracle, addr string, met *metrics, stop <-chan struct{}) {
	w := &rpcWorker{addr: addr}
	defer w.drop()
	spec := sc.Spec
	start := time.Now()
	for bi, b := range sc.Bursts {
		at := time.Duration(float64(o.Duration) * float64(bi) / float64(len(sc.Bursts)))
		for time.Since(start) < at {
			if stopped(stop) {
				return
			}
			sleepOrStop(stop, 10*time.Millisecond)
		}
		for j := 0; j < b.Count; j++ {
			if stopped(stop) {
				return
			}
			doc := &sc.Docs[spec.Preload+b.Start+j]
			it := doc.Item(sc.BaseURL, spec.W, spec.H)
			media.Add(it)
			oracle.AddDoc(it.URL, it.Annotation)
			var ppm bytes.Buffer
			if err := it.Scene.Img.EncodePPM(&ppm); err != nil {
				met.fail("ingest")
				continue
			}
			for { // retry across crashes until the daemon has the document
				c, err := w.client()
				if err == nil {
					t0 := time.Now()
					_, err = c.AddImage(it.URL, it.Annotation, ppm.Bytes())
					if err == nil {
						met.observe("ingest", time.Since(t0))
						break
					}
					if strings.Contains(err.Error(), "already in library") {
						break // a recovery crawl beat us to it; same outcome
					}
					met.fail("ingest")
					w.drop()
				} else {
					met.fail("ingest")
				}
				if stopped(stop) {
					return
				}
				sleepOrStop(stop, 25*time.Millisecond)
			}
		}
	}
}

// feedbackWorker runs multi-turn relevance feedback sessions: start, then
// three rounds of rank and judge (best hit relevant, worst nonrelevant).
// The worker holds the session's state, so a reconnect or a server
// restart resumes the same session at the round it reached.
func feedbackWorker(i int, o Options, sc *Scenario, addr string, met *metrics, stop <-chan struct{}) {
	w := &rpcWorker{addr: addr}
	defer w.drop()
	rng := rand.New(rand.NewSource(sc.Spec.Seed ^ int64(0x9d9d*(i+1))))
	var sess core.Session
	open := false
	fail := func() {
		met.fail("feedback")
		w.drop()
		sleepOrStop(stop, 25*time.Millisecond)
	}
	for !stopped(stop) {
		c, err := w.client()
		if err != nil {
			fail()
			continue
		}
		if !open {
			if sess, err = c.NewSession(sc.Sessions[rng.Intn(len(sc.Sessions))]); err != nil {
				fail()
				continue
			}
			open = true
		}
		t0 := time.Now()
		reply, err := c.Run(sess.Query(o.K))
		if err != nil {
			fail()
			continue
		}
		hits := reply.Hits
		met.observe("feedback", time.Since(t0))
		if len(hits) == 0 {
			open = false
			continue
		}
		rel := []uint64{hits[0].OID}
		var non []uint64
		if len(hits) > 1 {
			non = append(non, hits[len(hits)-1].OID)
		}
		next, err := c.SessionFeedback(sess, rel, non)
		if err != nil {
			fail() // the session stays: the retry re-ranks and re-judges
			continue
		}
		sess, open = next, next.Round < 3
	}
}

// tickWorker drives one maintenance RPC (refresh/checkpoint) on a cadence;
// the daemon runs with its own timers off so the harness owns the moments
// these operations fire — which is what makes the kill-during-X faults
// land where they aim.
func tickWorker(op string, every time.Duration, addr string, met *metrics, stop <-chan struct{}, call func(*core.Client) error) {
	w := &rpcWorker{addr: addr}
	defer w.drop()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		c, err := w.client()
		if err != nil {
			met.fail(op)
			continue
		}
		t0 := time.Now()
		if err := call(c); err != nil {
			met.fail(op)
			w.drop()
			continue
		}
		met.observe(op, time.Since(t0))
	}
}

// quiesce refreshes until the daemon is current over everything ingested,
// then runs the whole query mix once against the final epoch, verifying
// every answer — the end-to-end statement of the soak invariant.
func quiesce(o Options, sc *Scenario, oracle *core.Oracle, addr string, met *metrics) (*core.StatsReply, error) {
	c, err := core.DialMirror(addr)
	if err != nil {
		return nil, fmt.Errorf("load: quiesce dial: %w", err)
	}
	defer c.Close()
	var st *core.StatsReply
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, err := c.Refresh(); err != nil {
			return nil, fmt.Errorf("load: quiesce refresh: %w", err)
		}
		st, err = c.Stats()
		if err != nil {
			return nil, fmt.Errorf("load: quiesce stats: %w", err)
		}
		if st.Pending == 0 && st.Current {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("load: daemon never became current (%d pending)", st.Pending)
		}
		time.Sleep(50 * time.Millisecond)
	}
	o.Logf("load[%s]: quiesced at epoch %d over %d docs; final verification battery (%d queries)",
		o.Topology, st.Epoch, st.EpochDocs, len(sc.Queries))
	for _, q := range sc.Queries {
		reply, err := c.Run(core.Query{Stmt: core.StmtAnnotation, Text: q.Text, K: o.K})
		if err != nil {
			return nil, fmt.Errorf("load: final battery %q: %w", q.Text, err)
		}
		met.verified(oracle.VerifyHits(reply.EpochDocs, q.Text, o.K, reply.Hits))
	}
	return st, nil
}

// sleepOrStop sleeps unless the stop channel closes first.
func sleepOrStop(stop <-chan struct{}, d time.Duration) {
	select {
	case <-stop:
	case <-time.After(d):
	}
}
