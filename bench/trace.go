package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/ir"
	"mirror/internal/moa"
)

// The traced run times the same operations at each layer's public
// functions, from the benchmark's own files: a ladder of separate
// executions of one op — bat call, moa compile+run, core call, RPC call —
// each a span whose parent is the rung above. Spans inside the served
// program are a later change (ROADMAP item 1).

// span is one timed call into a layer. Spans of one op share trace_id.
type span struct {
	TraceID int64            `json:"trace_id"`
	Span    string           `json:"span"`
	Parent  string           `json:"parent,omitempty"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run shares code paths.
type recorder struct {
	origin time.Time
	spans  []span
}

func (r *recorder) add(id int, name, parent string, t0, t1 time.Time, counts map[string]int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		TraceID: int64(id), Span: name, Parent: parent,
		StartNS: t0.Sub(r.origin).Nanoseconds(), EndNS: t1.Sub(r.origin).Nanoseconds(),
		Counts: counts,
	})
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one ladder step: per-op durations in µs, indexed by op.
type rung struct {
	name string
	us   []float64
}

// pass times one rung over every op. Each rung is its own pass over the
// whole prefix, so every rung meets the same CPU-cache conditions (an
// op's postings were last touched one pass ago).
func pass(rec *recorder, name, parent string, n int, call func(i int) (map[string]int64, error)) (*rung, error) {
	r := &rung{name: name, us: make([]float64, n)}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		counts, err := call(i)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s rung, op %d: %w", name, i, err)
		}
		r.us[i] = micros(t1.Sub(t0))
		rec.add(i, name, parent, t0, t1, counts)
	}
	return r, nil
}

func (r *rung) p50() float64 {
	s := append([]float64(nil), r.us...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// selfP50 is the median over ops of this rung minus the rungs below it:
// the layer's self time.
func selfP50(r *rung, below ...*rung) float64 {
	s := make([]float64, len(r.us))
	for i := range s {
		s[i] = r.us[i]
		for _, b := range below {
			s[i] -= b.us[i]
		}
	}
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// annotationQuery is the paper's Section 3 ranking expression, which
// core.QueryAnnotations hands to the Moa engine.
const annotationQuery = `
	map[sum(THIS)](
		map[getBL(THIS.annotation, query, stats)]( ImageLibraryInternal ));`

// blockSegSuffixes is the block-compressed segment layout, in the
// argument order of the prunedtopkblk MIL builtin.
var blockSegSuffixes = []string{"_poststart", "_blkstart", "_blkdir", "_blkdoc", "_blkbdir", "_blkbel", "_maxbel"}

// scanner calls the physical top-k operator directly on the serving
// store's segment columns, resolved the way the prunedtopkblk builtin's
// arguments are.
type scanner struct {
	segs    []bat.PostingsSeg
	dictrev *bat.BAT
	domain  *bat.BAT
}

func newScanner(db *moa.Database) (*scanner, error) {
	prefix := core.InternalSet + "_annotation"
	sc := &scanner{}
	var ok bool
	if sc.dictrev, ok = db.BAT(prefix + "_dictrev"); !ok {
		return nil, fmt.Errorf("store has no %s_dictrev", prefix)
	}
	if sc.domain, ok = db.BAT(core.InternalSet + "__id"); !ok {
		return nil, fmt.Errorf("store has no %s__id", core.InternalSet)
	}
	for slot := 0; ; slot++ {
		var cols [7]*bat.BAT
		for j, suffix := range blockSegSuffixes {
			if cols[j], ok = db.BAT(ir.SegColumn(prefix, slot, suffix)); !ok {
				if j == 0 && slot > 0 {
					return sc, nil
				}
				return nil, fmt.Errorf("segment %d of %s lacks %s (not the block codec?)", slot, prefix, suffix)
			}
		}
		sc.segs = append(sc.segs, bat.PostingsSeg{
			Start: cols[0], BlkStart: cols[1], BlkDir: cols[2], BlkDoc: cols[3],
			BlkBDir: cols[4], BlkBel: cols[5], MaxBel: cols[6],
		})
	}
}

// resolve maps analysed query terms to term OIDs, as the plan's
// join(query, dictrev) does.
func (sc *scanner) resolve(terms []string) []bat.OID {
	var q []bat.OID
	for _, t := range terms {
		if v, ok := sc.dictrev.Find(t); ok {
			q = append(q, v.(bat.OID))
		}
	}
	return q
}

// textLadder replays ops down the four rungs of the ranked text query on
// a single store with caches pinned off, and checks that every rung gave
// the same answer BUN-for-BUN.
type textLadder struct {
	bat, compile, run, core, rpc *rung
	decoded, skipped             int64 // blocks, over the bat pass
	mismatches                   int
	firstMismatch                error
}

func runTextLadder(s *system, ops []string, rec *recorder) (*textLadder, error) {
	m := s.store
	scan, err := newScanner(m.DB)
	if err != nil {
		return nil, err
	}
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	eng := &moa.Engine{DB: m.DB, Opts: m.Eng.Opts}
	eng.Opts.TopK = topK

	n := len(ops)
	queries := make([][]bat.OID, n)
	params := make([]map[string]moa.Param, n)
	for i, text := range ops {
		terms := core.AnalyzeQuery(text)
		queries[i], params[i] = scan.resolve(terms), ir.QueryParams(terms)
	}
	l := &textLadder{}
	scanned := make([]*bat.BAT, n)
	d0, s0 := bat.BlockScanStats()
	if l.bat, err = pass(rec, "bat.PrunedTopKSegs", "moa.Run", n, func(i int) (map[string]int64, error) {
		db, sb := bat.BlockScanStats()
		out, err := bat.PrunedTopKSegs(scan.segs, queries[i], nil, ir.DefaultBelief, topK, scan.domain, nil)
		da, sa := bat.BlockScanStats()
		scanned[i] = out
		return map[string]int64{"blocks_decoded": da - db, "blocks_skipped": sa - sb}, err
	}); err != nil {
		return nil, err
	}
	d1, s1 := bat.BlockScanStats()
	l.decoded, l.skipped = d1-d0, s1-s0

	compiled := make([]*moa.Compiled, n)
	if l.compile, err = pass(rec, "moa.Compile", "core.QueryAnnotations", n, func(i int) (map[string]int64, error) {
		var err error
		compiled[i], err = eng.Compile(annotationQuery, params[i])
		return nil, err
	}); err != nil {
		return nil, err
	}
	rows := make([]*moa.Result, n)
	if l.run, err = pass(rec, "moa.Run", "core.QueryAnnotations", n, func(i int) (map[string]int64, error) {
		var err error
		rows[i], err = compiled[i].Run()
		return nil, err
	}); err != nil {
		return nil, err
	}
	hits := make([][]core.Hit, n)
	if l.core, err = pass(rec, "core.QueryAnnotations", "rpc.TextQuery", n, func(i int) (map[string]int64, error) {
		var err error
		hits[i], _, err = m.QueryAnnotationsStamped(ops[i], topK)
		return nil, err
	}); err != nil {
		return nil, err
	}
	wire := make([][]core.WireHit, n)
	if l.rpc, err = pass(rec, "rpc.TextQuery", "", n, func(i int) (map[string]int64, error) {
		r, err := c.TextQueryStamped(ops[i], topK, false)
		if err != nil {
			return nil, err
		}
		wire[i] = r.Hits
		return map[string]int64{"hits": int64(len(r.Hits))}, nil
	}); err != nil {
		return nil, err
	}

	for i := range ops {
		err := sameRanking(scanned[i], rows[i], hits[i])
		if err == nil {
			err = sameHits(ops[i], hits[i], wire[i])
		}
		if err != nil {
			l.mismatches++
			if l.firstMismatch == nil {
				l.firstMismatch = fmt.Errorf("op %d %q: %w", i, ops[i], err)
			}
		}
	}
	return l, nil
}

// sameRanking demands the physical operator, the Moa plan and the core
// call agree BUN-for-BUN: same documents, same scores, same order.
func sameRanking(scanned *bat.BAT, res *moa.Result, hits []core.Hit) error {
	if scanned.Len() != len(res.Rows) || len(res.Rows) != len(hits) {
		return fmt.Errorf("bat returned %d BUNs, moa %d rows, core %d hits", scanned.Len(), len(res.Rows), len(hits))
	}
	for i, row := range res.Rows {
		oid, score := scanned.Head.OIDAt(i), scanned.Tail.FloatAt(i)
		if v, _ := row.Value.(float64); oid != row.OID || score != v {
			return fmt.Errorf("rank %d: bat [%d, %v], moa [%d, %v]", i, oid, score, row.OID, row.Value)
		}
		if h := hits[i]; h.OID != row.OID || h.Score != score {
			return fmt.Errorf("rank %d: moa [%d, %v], core [%d, %v]", i, row.OID, score, h.OID, h.Score)
		}
	}
	return nil
}

// dualLadder replays dual-coding ops: the thesaurus expansion, the
// content evidence and the text evidence the core call combines, the
// core call, the RPC call.
type dualLadder struct {
	expand, content, text, core, rpc *rung
	decoded, skipped                 int64 // blocks, over the core pass
	mismatches                       int
	firstMismatch                    error
}

func runDualLadder(s *system, ops []string, rec *recorder) (*dualLadder, error) {
	m := s.store
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	n := len(ops)
	l := &dualLadder{}
	words := make([][]string, n)
	if l.expand, err = pass(rec, "thesaurus.ExpandQuery", "core.QueryDualCoding", n, func(i int) (map[string]int64, error) {
		words[i] = m.ExpandQuery(ops[i], 5)
		return map[string]int64{"concepts": int64(len(words[i]))}, nil
	}); err != nil {
		return nil, err
	}
	if l.content, err = pass(rec, "core.QueryContent", "core.QueryDualCoding", n, func(i int) (map[string]int64, error) {
		if len(words[i]) == 0 {
			return nil, nil // queryDualCoding skips the content evidence too
		}
		hits, err := m.QueryContent(words[i], 0)
		return map[string]int64{"docs_scored": int64(len(hits))}, err
	}); err != nil {
		return nil, err
	}
	if l.text, err = pass(rec, "core.QueryAnnotations.full", "core.QueryDualCoding", n, func(i int) (map[string]int64, error) {
		hits, err := m.QueryAnnotations(ops[i], 0)
		return map[string]int64{"docs_scored": int64(len(hits))}, err
	}); err != nil {
		return nil, err
	}
	hits := make([][]core.Hit, n)
	d0, s0 := bat.BlockScanStats()
	if l.core, err = pass(rec, "core.QueryDualCoding", "rpc.TextQuery", n, func(i int) (map[string]int64, error) {
		var err error
		hits[i], _, err = m.QueryDualCodingStamped(ops[i], topK)
		return nil, err
	}); err != nil {
		return nil, err
	}
	d1, s1 := bat.BlockScanStats()
	l.decoded, l.skipped = d1-d0, s1-s0
	if l.rpc, err = pass(rec, "rpc.TextQuery", "", n, func(i int) (map[string]int64, error) {
		r, err := c.TextQueryStamped(ops[i], topK, true)
		if err != nil {
			return nil, err
		}
		if err := sameHits(ops[i], hits[i], r.Hits); err != nil {
			l.mismatches++
			if l.firstMismatch == nil {
				l.firstMismatch = err
			}
		}
		return map[string]int64{"hits": int64(len(r.Hits))}, nil
	}); err != nil {
		return nil, err
	}
	return l, nil
}

// distLadder replays text ops through the scatter-gather topology: the
// same text sent directly to each shard (the slowest sets the leg time),
// the router's in-process gather, the RPC call to the served router.
type distLadder struct {
	legMax, gather, rpc *rung
	decoded, skipped    int64 // blocks on both shards, over the gather pass
	pushes              int64 // θ raises streamed to in-flight legs, over the gather pass
	mismatches          int
	firstMismatch       error
}

func runDistLadder(s *system, ops []string, rec *recorder) (*distLadder, error) {
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	legs := make([]*core.Client, len(s.legs))
	for i, addr := range s.legs {
		if legs[i], err = core.DialMirror(addr); err != nil {
			return nil, err
		}
		defer legs[i].Close()
	}
	n := len(ops)
	l := &distLadder{legMax: &rung{name: "shard.TextQuery.max", us: make([]float64, n)}}
	for shard, lc := range legs {
		r, err := pass(rec, fmt.Sprintf("shard%d.TextQuery", shard), "dist.QueryAnnotations", n, func(i int) (map[string]int64, error) {
			_, err := lc.TextQueryStamped(ops[i], topK, false)
			return nil, err
		})
		if err != nil {
			return nil, err
		}
		for i, us := range r.us {
			l.legMax.us[i] = max(l.legMax.us[i], us)
		}
	}
	p0 := s.router.ThetaStreamed()
	d0, s0 := bat.BlockScanStats()
	hits := make([][]core.Hit, n)
	if l.gather, err = pass(rec, "dist.QueryAnnotations", "rpc.TextQuery", n, func(i int) (map[string]int64, error) {
		var err error
		hits[i], _, err = s.router.QueryAnnotationsStamped(ops[i], topK)
		return nil, err
	}); err != nil {
		return nil, err
	}
	l.pushes = s.router.ThetaStreamed() - p0
	d1, s1 := bat.BlockScanStats()
	l.decoded, l.skipped = d1-d0, s1-s0
	if l.rpc, err = pass(rec, "rpc.TextQuery", "", n, func(i int) (map[string]int64, error) {
		r, err := c.TextQueryStamped(ops[i], topK, false)
		if err != nil {
			return nil, err
		}
		if err := sameHits(ops[i], hits[i], r.Hits); err != nil {
			l.mismatches++
			if l.firstMismatch == nil {
				l.firstMismatch = err
			}
		}
		return map[string]int64{"hits": int64(len(r.Hits))}, nil
	}); err != nil {
		return nil, err
	}
	return l, nil
}
