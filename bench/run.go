package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mirror/internal/core"
)

// topK is the ranked cut of every query the benchmark issues.
const topK = 10

// clients is the closed-loop client count: every Mirror client blocks on
// its RPC reply, and the benchmark box has two cores.
const clients = 2

// reply is one kept answer, verified after the window.
type reply struct {
	text string
	r    *core.TextQueryReply
}

// driveOpts describes one closed-loop run against a served system.
type driveOpts struct {
	addr    string
	src     opSource
	dual    bool
	clients int
	warm    time.Duration   // ops started earlier than this are not measured
	stop    <-chan struct{} // closed: clients finish their op and return
	maxOps  int             // per-client op cap (smoke scale); 0 = none
	keep    int             // replies kept per client and epoch
	traced  bool            // record one span per op
}

// driveResult merges what the clients observed in the measured window.
type driveResult struct {
	lat       []float64 // client-observed latencies in µs, sorted
	ops       []op      // the same ops in completion order per client, unsorted
	origin    time.Time // start of the measured window
	elapsed   time.Duration
	attempted int
	failed    int
	err       error // first op error
	kept      []reply
	spans     []span
}

// op is one measured operation: when it started, relative to the start
// of the measured window, and how long the client waited for its reply.
type op struct {
	at time.Duration
	us float64
}

// drive runs o.clients closed-loop clients: each sends its next query
// only after the previous reply arrived.
func drive(o driveOpts) (*driveResult, error) {
	conns := make([]*core.Client, o.clients)
	for i := range conns {
		c, err := core.DialMirror(o.addr)
		if err != nil {
			for _, open := range conns[:i] {
				open.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	start := time.Now()
	measureFrom := start.Add(o.warm)
	per := make([]driveResult, o.clients)
	ends := make([]time.Time, o.clients)
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, res := conns[ci], &per[ci]
			defer c.Close()
			perEpoch := map[int64]int{}
			for n := 0; o.maxOps == 0 || n < o.maxOps; n++ {
				select {
				case <-o.stop:
					return
				default:
				}
				text := o.src.next()
				t0 := time.Now()
				r, err := c.TextQueryStamped(text, topK, o.dual)
				t1 := time.Now()
				if t0.Before(measureFrom) {
					continue
				}
				res.attempted++
				ends[ci] = t1
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = err
					}
					continue
				}
				res.ops = append(res.ops, op{t0.Sub(measureFrom), micros(t1.Sub(t0))})
				if o.traced {
					res.spans = append(res.spans, span{
						TraceID: int64(ci)<<32 | int64(n), Span: "client.op",
						StartNS: t0.Sub(start).Nanoseconds(), EndNS: t1.Sub(start).Nanoseconds(),
						Counts: map[string]int64{"hits": int64(len(r.Hits))},
					})
				}
				if perEpoch[r.Epoch] < o.keep {
					perEpoch[r.Epoch]++
					res.kept = append(res.kept, reply{text, r})
				}
			}
		}(ci)
	}
	wg.Wait()

	out := &driveResult{origin: measureFrom}
	last := measureFrom
	for ci := range per {
		p := &per[ci]
		out.ops = append(out.ops, p.ops...)
		out.attempted += p.attempted
		out.failed += p.failed
		if out.err == nil {
			out.err = p.err
		}
		out.kept = append(out.kept, p.kept...)
		out.spans = append(out.spans, p.spans...)
		if ends[ci].After(last) {
			last = ends[ci]
		}
	}
	out.elapsed = last.Sub(measureFrom)
	out.lat = make([]float64, len(out.ops))
	for i, o := range out.ops {
		out.lat[i] = o.us
	}
	sort.Float64s(out.lat)
	if len(out.lat) == 0 {
		return out, fmt.Errorf("no operation completed in the measured window (first error: %v)", out.err)
	}
	return out, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the exact q-quantile of sorted samples (nearest rank,
// no interpolation: a reported latency is one a client saw).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// minSliceOps keeps at least ten samples beyond a slice's 95th
// percentile.
const minSliceOps = 200

// sliced splits the measured window into slices ending at cuts and
// returns the median over slices of each slice's p50, p95 and completed
// ops per second, plus the slices' p50s in time order. Without cuts the window is split into up to seven
// equal time slices (an odd number, each with at least minSliceOps ops).
// A stall of the machine that lasts under half the window moves the
// slices it hits and leaves the medians alone.
func (r *driveResult) sliced(cuts []time.Duration) (p50, p95, qps float64, p50s []float64) {
	if cuts == nil {
		n := min(7, len(r.ops)/minSliceOps)
		if n%2 == 0 {
			n--
		}
		n = max(1, n)
		for i := 1; i <= n; i++ {
			cuts = append(cuts, r.elapsed*time.Duration(i)/time.Duration(n)+1)
		}
	}
	per := make([][]float64, len(cuts))
	for _, o := range r.ops {
		if i := sort.Search(len(cuts), func(i int) bool { return o.at < cuts[i] }); i < len(cuts) {
			per[i] = append(per[i], o.us)
		}
	}
	var p95s, rates []float64
	from := time.Duration(0)
	for i, lat := range per {
		width := cuts[i] - from
		from = cuts[i]
		if len(lat) == 0 {
			continue // the clients spent the whole slice inside one op
		}
		sort.Float64s(lat)
		p50s = append(p50s, quantile(lat, 0.50))
		p95s = append(p95s, quantile(lat, 0.95))
		rates = append(rates, float64(len(lat))/width.Seconds())
	}
	sorted := append([]float64(nil), p50s...)
	sort.Float64s(sorted)
	sort.Float64s(p95s)
	sort.Float64s(rates)
	return quantile(sorted, 0.5), quantile(p95s, 0.5), quantile(rates, 0.5), p50s
}

// newOracle builds the in-process referee over the benchmark's ingest
// order. Reference indexes are built lazily, per verified prefix.
func newOracle(docs []doc) *core.Oracle {
	o := core.NewOracle()
	for i := range docs {
		o.AddDoc(docs[i].URL, docs[i].Annotation)
	}
	return o
}

// sample picks up to n kept replies, half from the first and half from
// the last epoch they were served from: every distinct epoch costs the
// oracle one reference build. Read-only workloads have one epoch.
func sample(kept []reply, n int) []reply {
	if len(kept) == 0 {
		return nil
	}
	first, last := kept[0].r.Epoch, kept[0].r.Epoch
	for _, r := range kept {
		first, last = min(first, r.r.Epoch), max(last, r.r.Epoch)
	}
	per := n
	if first != last {
		per = n / 2
	}
	var out []reply
	taken := map[int64]int{}
	for _, r := range kept {
		if e := r.r.Epoch; (e == first || e == last) && taken[e] < per {
			taken[e]++
			out = append(out, r)
		}
	}
	return out
}

// verify checks replies on both cores and returns how many were wrong
// plus the first mismatch.
func verify(replies []reply, check func(reply) error) (bad int, first error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(replies); i += clients {
				if err := check(replies[i]); err != nil {
					mu.Lock()
					bad++
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return bad, first
}

// checkText verifies a stamped annotation reply against the oracle's
// one-shot reference build over the stamped prefix, at the same cut k:
// the same scores rank for rank, bit for bit, and every served document
// either carries its reference score or ties with the boundary rank (any
// tied subset may legally fill the last ranks).
//
// It does not use Oracle.VerifyHits: that compares against the k=0
// exhaustive ranking, which sums a document's beliefs in another order
// than the pruned scan and differs from it in the last bit on a fifth of
// this benchmark's 3–4-term queries (see README, "What the benchmark
// found").
func checkText(o *core.Oracle) func(reply) error {
	return func(r reply) error {
		want, err := o.Expected(r.r.EpochDocs, r.text, topK)
		if err != nil {
			return err
		}
		got := r.r.Hits
		if len(got) != len(want) {
			return fmt.Errorf("query %q at prefix %d: %d hits served, reference has %d", r.text, r.r.EpochDocs, len(got), len(want))
		}
		ref := make(map[string]float64, len(want))
		for _, h := range want {
			ref[h.URL] = h.Score
		}
		for i, g := range got {
			if g.Score != want[i].Score {
				return fmt.Errorf("query %q at prefix %d: rank %d score %v, reference %v", r.text, r.r.EpochDocs, i, g.Score, want[i].Score)
			}
			if s, ok := ref[g.URL]; ok && s != g.Score || !ok && g.Score != want[len(want)-1].Score {
				return fmt.Errorf("query %q at prefix %d: %s served at rank %d with score %v, which the reference does not give it", r.text, r.r.EpochDocs, g.URL, i, g.Score)
			}
		}
		return nil
	}
}

// checkDual verifies an RPC dual-coding reply hit-for-hit against the
// in-process evaluation (result cache off, so it is recomputed).
func checkDual(m *core.Mirror) func(reply) error {
	return func(r reply) error {
		hits, _, err := m.QueryDualCodingStamped(r.text, topK)
		if err != nil {
			return err
		}
		return sameHits(r.text, hits, r.r.Hits)
	}
}

// sameHits demands the same documents with the same scores in the same
// order.
func sameHits(text string, want []core.Hit, got []core.WireHit) error {
	if len(got) != len(want) {
		return fmt.Errorf("query %q: %d hits over RPC, %d in process", text, len(got), len(want))
	}
	for i, h := range want {
		if g := got[i]; g.OID != uint64(h.OID) || g.URL != h.URL || g.Score != h.Score {
			return fmt.Errorf("query %q rank %d: RPC %v, in process %v", text, i, g, h)
		}
	}
	return nil
}
