package mirror

// E11: pruned top-k retrieval vs exhaustive score-everything-then-sort, at
// collection scale. The fixture is a synthetic term-ordered postings index
// built directly at the physical layer (the same representation CONTREP's
// Finalize derives), so the benchmark measures pure query cost: the
// exhaustive side runs the legacy pipeline getbl → fill(domain) → full
// descending sort cut at k; the pruned side runs the max-score operator.
//
// TestEmitQueryBenchJSON additionally writes the measured latencies as
// BENCH_queries.json when the BENCH_QUERIES_JSON env var names a path (the
// CI bench-smoke job does), seeding the query-latency perf trajectory.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mirror/internal/bat"
	"mirror/internal/ir"
)

// e11Index is the physical fixture: one corpus as the block segment
// both the pruned operator and the exhaustive pipeline read.
type e11Index struct {
	n int // documents
	// term-ordered postings: the block segment the operators scan, and
	// the flat arrays it was encoded from (mkE11Shards re-slices them)
	seg     bat.PostingsSeg
	starts  []int64
	postDoc []bat.OID
	postBel []float64
	domain  *bat.BAT
	nterms  int
}

var (
	e11Mu    sync.Mutex
	e11Cache = map[int]*e11Index{}
)

// mkE11Index builds a deterministic corpus of n documents with 8 postings
// each: 3 from a small set of common terms (long posting lists — the ones
// max-score demotes to non-essential) and 5 rare terms.
func mkE11Index(n int) *e11Index {
	e11Mu.Lock()
	defer e11Mu.Unlock()
	if ix, ok := e11Cache[n]; ok {
		return ix
	}
	const perDoc = 8
	const common = 50
	nterms := 20000
	if nterms > n/2+common+1 {
		nterms = n/2 + common + 1
	}
	p := n * perDoc
	termOf := make([]bat.OID, 0, p)
	docOf := make([]bat.OID, 0, p)
	belOf := make([]float64, 0, p)
	seen := map[bat.OID]bool{}
	rnd := uint64(12345)
	next := func() uint64 { // xorshift, deterministic and allocation-free
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for d := 0; d < n; d++ {
		for t := range seen {
			delete(seen, t)
		}
		for i := 0; i < perDoc; i++ {
			var t bat.OID
			if i < 3 {
				t = bat.OID(next() % common)
			} else {
				t = bat.OID(common + next()%uint64(nterms-common))
			}
			if seen[t] {
				continue
			}
			seen[t] = true
			termOf = append(termOf, t)
			docOf = append(docOf, bat.OID(d))
			belOf = append(belOf, ir.DefaultBelief+float64(next()%1000)/1000*0.55)
		}
	}
	ix := e11Assemble(n, nterms, termOf, docOf, belOf)
	e11Cache[n] = ix
	return ix
}

// e11Assemble builds the block segment from generated postings triples. Docs must ascend per term — the generation loops
// iterate d ascending, so the counting sort by term preserves that order.
func e11Assemble(n, nterms int, termOf, docOf []bat.OID, belOf []float64) *e11Index {
	p := len(termOf)
	starts := make([]int64, nterms+1)
	for _, t := range termOf {
		starts[t+1]++
	}
	for t := 1; t <= nterms; t++ {
		starts[t] += starts[t-1]
	}
	pd := make([]bat.OID, p)
	pb := make([]float64, p)
	cur := append([]int64(nil), starts...)
	for i := 0; i < p; i++ {
		t := termOf[i]
		at := cur[t]
		cur[t]++
		pd[at] = docOf[i]
		pb[at] = belOf[i]
	}

	ix := &e11Index{
		n:       n,
		nterms:  nterms,
		seg:     e11Encode(starts, pd, pb),
		starts:  starts,
		postDoc: pd,
		postBel: pb,
		domain:  &bat.BAT{Head: bat.NewVoid(0, n), Tail: bat.NewVoid(0, n)},
	}
	ix.domain.HSorted, ix.domain.HKey = true, true
	return ix
}

var (
	e11SkewMu    sync.Mutex
	e11SkewCache = map[int]*e11Index{}
)

// mkE11SkewedIndex builds the skewed twin of the E11 corpus: term
// popularity follows a zipf-ish law (df(t) ∝ 1/t, the shape mkcorpus
// -class-zipf gives the demo collection and real collections have), and
// beliefs sit exactly flat at the default except on "hot" documents —
// 512-doc windows every 512k doc ids — whose postings spike with varied
// amplitude in [0.275, 0.55) so scores don't tie. Real collections
// cluster quality the same way (a crawl's authoritative sites arrive
// together), and the clustering is what makes block-max bite: flat
// postings contribute zero mass above the fill base, so a block without
// a hot doc has a zero bound, and the hot windows coincide across
// terms. The moment θ holds a spike score, the scan reduces to a
// directory walk that decodes only the shared hot blocks. The uniform
// fixture is block-max's worst case — every block's bound looks alike,
// so a rising θ separates nothing; this one is the regime the threshold
// lifecycle targets, and what a warm (memo-seeded) or streamed θ buys
// is reaching that regime from posting one instead of after the
// heap-filling prefix has decoded a third of the corpus.
func mkE11SkewedIndex(n int) *e11Index {
	e11SkewMu.Lock()
	defer e11SkewMu.Unlock()
	if ix, ok := e11SkewCache[n]; ok {
		return ix
	}
	const perDoc = 8
	nterms := 20000
	if nterms > n/2+51 {
		nterms = n/2 + 51
	}
	p := n * perDoc
	termOf := make([]bat.OID, 0, p)
	docOf := make([]bat.OID, 0, p)
	belOf := make([]float64, 0, p)
	seen := map[bat.OID]bool{}
	rnd := uint64(67890)
	next := func() uint64 { // xorshift, deterministic and allocation-free
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	lnT := math.Log(float64(nterms))
	for d := 0; d < n; d++ {
		// hot windows: 512 docs every 512k, offset so the first sits a
		// third of a million docs in — a cold scan pays a long flat
		// prefix before θ first rises, exactly what a seed removes
		w := d % 524288
		hot := w >= 131072 && w < 131584
		for t := range seen {
			delete(seen, t)
		}
		for i := 0; i < perDoc; i++ {
			// log-uniform draw: P(term < x) = ln(x)/ln(nterms), so term t
			// collects df ∝ 1/t postings — the zipf head/tail split.
			u := float64(next()%(1<<20)) / (1 << 20)
			ti := int(math.Exp(u*lnT)) - 1
			if ti >= nterms {
				ti = nterms - 1
			}
			t := bat.OID(ti)
			if seen[t] {
				continue
			}
			seen[t] = true
			bel := ir.DefaultBelief
			if hot {
				bel += 0.275 + float64(next()%1024)/1024*0.275
			}
			termOf = append(termOf, t)
			docOf = append(docOf, bat.OID(d))
			belOf = append(belOf, bel)
		}
	}
	ix := e11Assemble(n, nterms, termOf, docOf, belOf)
	e11SkewCache[n] = ix
	return ix
}

// e11Encode encodes flat term-ordered postings as one block segment
// (term frequencies are not part of the fixture; they encode as 1).
func e11Encode(starts []int64, docs []bat.OID, bels []float64) bat.PostingsSeg {
	tfs := make([]int64, len(docs))
	for i := range tfs {
		tfs[i] = 1
	}
	seg, err := bat.EncodeBlockSegment(starts, docs, tfs, bels)
	if err != nil {
		panic(err)
	}
	return seg
}

// e11Queries mixes common (high-df) and rare terms.
func e11Queries(ix *e11Index) [][]bat.OID {
	return [][]bat.OID{
		{1, 2, 3},
		{0, 7, 99, 1234 % bat.OID(ix.nterms)},
		{5, 60, 61, 62, 63},
		{10, 11},
		{4, 8, 15, 16, 23, 42},
		{20, 200 % bat.OID(ix.nterms), 2000 % bat.OID(ix.nterms)},
		{30, 31, 32, 33},
		{6, 9, 12},
		{44, 45, 46, 47, 48},
	}
}

// e11Exhaustive is the legacy pipeline: score matches, fill the whole
// domain with the default, sort everything descending, cut at k.
func e11Exhaustive(ix *e11Index, q []bat.OID, k int) (*bat.BAT, error) {
	beliefs, counts, err := bat.GetBL([]bat.PostingsSeg{ix.seg}, q)
	if err != nil {
		return nil, err
	}
	scores, err := bat.SumBeliefs(beliefs, counts, len(q), ir.DefaultBelief)
	if err != nil {
		return nil, err
	}
	filled, err := bat.Fill(scores, ix.domain, float64(len(q))*ir.DefaultBelief)
	if err != nil {
		return nil, err
	}
	return bat.TopN(filled, k)
}

func e11Pruned(ix *e11Index, q []bat.OID, k int) (*bat.BAT, error) {
	return e11PrunedTheta(ix, q, k, nil)
}

// e11PrunedTheta is e11Pruned with a caller-owned threshold — the warm-θ
// entry point. Seed it with a completed run's terminal bound (what
// core's θ-memo does for repeat queries) and the scan prunes from
// posting one; pass it fresh and its terminal Load() is that bound.
func e11PrunedTheta(ix *e11Index, q []bat.OID, k int, th *bat.TopKThreshold) (*bat.BAT, error) {
	return bat.PrunedTopKSegs([]bat.PostingsSeg{ix.seg}, q, nil, ir.DefaultBelief, k, ix.domain, th)
}

// e11SegColumns lists a segment's seven columns in NewBlockPostings order.
func e11SegColumns(s bat.PostingsSeg) [7]*bat.BAT {
	return [7]*bat.BAT{s.Start, s.BlkStart, s.BlkDir, s.BlkDoc, s.BlkBDir, s.BlkBel, s.MaxBel}
}

// e11Footprint sizes the postings: every column a pruned scan reads
// (offsets, postings payloads, per-term bounds) as stored, next to the
// computed size of the same postings at 8 bytes per field — offsets,
// bounds, and doc + tf + belief per posting, the formula ir.Footprint
// reports for live stores.
func e11Footprint(ix *e11Index) (rawBytes, blockBytes int64) {
	nt, np := int64(ix.nterms), int64(len(ix.postDoc))
	rawBytes = 8*(nt+1) + 8*nt + 24*np
	for _, b := range e11SegColumns(ix.seg) {
		blockBytes += b.MemBytes()
	}
	return rawBytes, blockBytes
}

// e11DecodeThroughput decodes every doc block of the fixture once and
// reports postings decoded per second — the sequential decompression
// speed a pruned scan pays when it cannot skip.
func e11DecodeThroughput(ix *e11Index) (postings int64, perSec float64) {
	c := e11SegColumns(ix.seg)
	bp, err := bat.NewBlockPostings(c[0], c[1], c[2], c[3], c[4], c[5], c[6])
	if err != nil {
		panic(err)
	}
	docs := make([]bat.OID, bat.PostingsBlockSize)
	tfs := make([]int64, bat.PostingsBlockSize)
	t0 := time.Now()
	for t := 0; t < bp.NTerms(); t++ {
		blo, bhi := bp.TermBlocks(t)
		for b := blo; b < bhi; b++ {
			n, err := bp.DecodeDocBlock(t, b, docs, tfs)
			if err != nil {
				panic(err)
			}
			postings += int64(n)
		}
	}
	el := time.Since(t0).Seconds()
	return postings, float64(postings) / el
}

// e11N returns the benchmark collection size (override with E11_N).
func e11N() int {
	if s := os.Getenv("E11_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1_000_000
}

func BenchmarkE11_ExhaustiveTopK(b *testing.B) {
	ix := mkE11Index(e11N())
	qs := e11Queries(ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e11Exhaustive(ix, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_PrunedTopK(b *testing.B) {
	ix := mkE11Index(e11N())
	qs := e11Queries(ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e11Pruned(ix, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestE11PrunedEqualsExhaustiveShape pins, at a size CI can afford, that
// the two pipelines agree on the top-k set and scores at shallow and deep
// cuts, and that the block layout is actually smaller than 8 bytes per
// field. (Order within exact ties differs only in how TopN's stable sort
// breaks them; the comparison is on the canonical ranking, recomputed
// with the OID tie rule.)
func TestE11PrunedEqualsExhaustiveShape(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	ix := mkE11Index(n)
	for _, q := range e11Queries(ix) {
		for _, k := range []int{1, 10, 100} {
			pruned, err := e11Pruned(ix, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := e11CanonicalTopK(ix, q, k)
			if pruned.Len() != len(want) {
				t.Fatalf("q=%v k=%d: %d hits, want %d", q, k, pruned.Len(), len(want))
			}
			for i := range want {
				if pruned.Head.OIDAt(i) != want[i].doc || pruned.Tail.FloatAt(i) != want[i].score {
					t.Fatalf("q=%v k=%d rank %d: got (%d, %v), want (%d, %v)",
						q, k, i, pruned.Head.OIDAt(i), pruned.Tail.FloatAt(i), want[i].doc, want[i].score)
				}
			}
		}
	}
	raw, blk := e11Footprint(ix)
	if blk >= raw {
		t.Errorf("block layout %d bytes >= %d at 8 bytes per field", blk, raw)
	}
	t.Logf("footprint n=%d: %d bytes at 8 B/field, block %d bytes (%.2fx)", n, raw, blk, float64(raw)/float64(blk))
}

// e11CanonicalTopK computes the exhaustive ranking with the canonical
// fold and tie order (score descending, OID ascending).
func e11CanonicalTopK(ix *e11Index, q []bat.OID, k int) []e11Hit {
	beliefs, counts, err := bat.GetBL([]bat.PostingsSeg{ix.seg}, q)
	if err != nil {
		panic(err)
	}
	scores, err := bat.SumBeliefs(beliefs, counts, len(q), ir.DefaultBelief)
	if err != nil {
		panic(err)
	}
	base := float64(len(q)) * ir.DefaultBelief
	all := make([]e11Hit, ix.n)
	for d := range all {
		all[d] = e11Hit{doc: bat.OID(d), score: base}
	}
	for i := 0; i < scores.Len(); i++ {
		all[scores.Head.OIDAt(i)].score = scores.Tail.FloatAt(i)
	}
	h := bat.NewBoundedTopK(k, e11HitWorse)
	for _, e := range all {
		h.Offer(e)
	}
	return h.Ranked()
}

// TestEmitQueryBenchJSON measures p50 query latency of both paths and, when
// BENCH_QUERIES_JSON names a file, writes the numbers there (the CI
// bench-smoke job archives it as the perf trajectory).
func TestEmitQueryBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_QUERIES_JSON")
	if path == "" {
		t.Skip("BENCH_QUERIES_JSON not set")
	}
	ix := mkE11Index(e11N())
	qs := e11Queries(ix)
	const k = 10
	// medianNs: best-of-reps per query, median across queries. The host
	// is shared, so cheap paths take more reps to shake scheduling noise
	// out of the best; only the exhaustive path (hundreds of ms per run)
	// stays at 3.
	medianNs := func(reps int, run func(qi int, q []bat.OID) error) int64 {
		perQuery := make([]int64, 0, len(qs))
		for qi, q := range qs {
			best := int64(math.MaxInt64)
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				if err := run(qi, q); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0).Nanoseconds(); d < best {
					best = d
				}
			}
			perQuery = append(perQuery, best)
		}
		sort.Slice(perQuery, func(i, j int) bool { return perQuery[i] < perQuery[j] })
		return perQuery[len(perQuery)/2]
	}
	// skipRate reduces BlockScanStats deltas around a timed run.
	skipRateOf := func(dec0, skip0, dec1, skip1 int64) float64 {
		if total := (dec1 - dec0) + (skip1 - skip0); total > 0 {
			return float64(skip1-skip0) / float64(total)
		}
		return 0
	}
	const nShards = 8
	shards := mkE11Shards(ix, nShards)
	exh := medianNs(3, func(_ int, q []bat.OID) error { _, err := e11Exhaustive(ix, q, k); return err })
	dec0, skip0 := bat.BlockScanStats()
	prn := medianNs(7, func(_ int, q []bat.OID) error { _, err := e11Pruned(ix, q, k); return err })
	dec1, skip1 := bat.BlockScanStats()
	shd := medianNs(7, func(_ int, q []bat.OID) error { _, err := e11Sharded(shards, q, k); return err })
	rawBytes, blkBytes := e11Footprint(ix)
	decPostings, decPerSec := e11DecodeThroughput(ix)
	skipRate := skipRateOf(dec0, skip0, dec1, skip1)

	// Threshold-lifecycle rows run on the skewed twin of the corpus (the
	// regime pruning targets; the uniform fixture is block-max's worst
	// case). Cold block scan, the warm (memo-seeded) repeat, and the
	// scatter with shared vs isolated thresholds — what threshold sharing
	// (the router streams it into in-flight legs) buys a scatter.
	six := mkE11SkewedIndex(ix.n)
	sShards := mkE11Shards(six, nShards)
	cdec0, cskip0 := bat.BlockScanStats()
	sCold := medianNs(7, func(_ int, q []bat.OID) error {
		_, err := e11PrunedTheta(six, q, k, bat.NewTopKThreshold())
		return err
	})
	cdec1, cskip1 := bat.BlockScanStats()
	terminal := make([]float64, len(qs))
	for qi, q := range qs {
		th := bat.NewTopKThreshold()
		if _, err := e11PrunedTheta(six, q, k, th); err != nil {
			t.Fatal(err)
		}
		terminal[qi] = th.Load()
	}
	wdec0, wskip0 := bat.BlockScanStats()
	warm := medianNs(9, func(qi int, q []bat.OID) error {
		th := bat.NewTopKThreshold()
		th.Raise(terminal[qi])
		_, err := e11PrunedTheta(six, q, k, th)
		return err
	})
	wdec1, wskip1 := bat.BlockScanStats()
	sShared := medianNs(7, func(_ int, q []bat.OID) error { _, err := e11Sharded(sShards, q, k); return err })
	sIsolated := medianNs(7, func(_ int, q []bat.OID) error { _, err := e11ShardedStatic(sShards, q, k); return err })
	out := map[string]any{
		"experiment":        "E11",
		"n_docs":            ix.n,
		"k":                 k,
		"queries":           len(qs),
		"p50_exhaustive_ns": exh,
		"p50_pruned_ns":     prn,
		"speedup":           fmt.Sprintf("%.1f", float64(exh)/float64(prn)),
		// sharded-vs-single: the scatter-gather merge with a shared
		// pruning threshold over 8 document shards, against the single
		// pruned scan — the overhead (or win) of going placement-aware.
		"shards":            nShards,
		"p50_sharded_ns":    shd,
		"sharded_vs_single": fmt.Sprintf("%.2f", float64(shd)/float64(prn)),
		"sharded_vs_exh":    fmt.Sprintf("%.1f", float64(exh)/float64(shd)),
		// block codec: the layout's standalone numbers (footprint against
		// the computed 8-bytes-per-field size, skip rate of the pruned
		// timing above, sequential decode).
		"postings_raw_bytes":    rawBytes,
		"postings_block_bytes":  blkBytes,
		"compression_ratio":     fmt.Sprintf("%.2f", float64(rawBytes)/float64(blkBytes)),
		"block_skip_rate":       fmt.Sprintf("%.3f", skipRate),
		"decode_postings":       decPostings,
		"decode_postings_per_s": fmt.Sprintf("%.0f", decPerSec),
		// threshold lifecycle (skewed corpus): cold block scan vs the
		// warm repeat seeded with the memoised terminal θ, and the
		// scatter with a shared threshold vs isolated per-shard bounds.
		"skewed_p50_block_ns":        sCold,
		"skewed_block_skip_rate":     fmt.Sprintf("%.3f", skipRateOf(cdec0, cskip0, cdec1, cskip1)),
		"p50_warm_theta_ns":          warm,
		"warm_theta_speedup":         fmt.Sprintf("%.1f", float64(sCold)/float64(warm)),
		"warm_theta_block_skip_rate": fmt.Sprintf("%.3f", skipRateOf(wdec0, wskip0, wdec1, wskip1)),
		"p50_scatter_shared_ns":      sShared,
		"p50_scatter_isolated_ns":    sIsolated,
		"scatter_shared_gain":        fmt.Sprintf("%.2f", float64(sIsolated)/float64(sShared)),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("E11 n=%d k=%d: exhaustive p50 %.2fms, pruned p50 %.3fms (%.1fx), sharded(%d) p50 %.3fms",
		ix.n, k, float64(exh)/1e6, float64(prn)/1e6, float64(exh)/float64(prn), nShards, float64(shd)/1e6)
	t.Logf("E11 block codec: %d->%d bytes (%.2fx), skip rate %.1f%%, decode %.0f postings/s",
		rawBytes, blkBytes, float64(rawBytes)/float64(blkBytes), 100*skipRate, decPerSec)
	t.Logf("E11 threshold lifecycle (skewed): cold p50 %.3fms, warm-θ p50 %.1fµs (%.1fx), scatter shared %.3fms vs isolated %.3fms (%.2fx)",
		float64(sCold)/1e6, float64(warm)/1e3, float64(sCold)/float64(warm),
		float64(sShared)/1e6, float64(sIsolated)/1e6, float64(sIsolated)/float64(sShared))
}

// ---- sharded scatter-gather vs single store (PR 4) ----

// e11Shard is one document-range slice of the e11 postings — the physical
// shape of one shard's CONTREP after a sharded index build.
type e11Shard struct {
	seg    bat.PostingsSeg
	domain *bat.BAT
}

// mkE11Shards slices the corpus into n doc-range shards with shard-local
// max-belief bounds. (The engine shards by URL hash; doc ranges give the
// same per-shard shape with a cheaper fixture.)
func mkE11Shards(ix *e11Index, n int) []e11Shard {
	starts, docs, bels := ix.starts, ix.postDoc, ix.postBel
	shards := make([]e11Shard, n)
	for s := 0; s < n; s++ {
		lo := bat.OID(uint64(ix.n) * uint64(s) / uint64(n))
		hi := bat.OID(uint64(ix.n) * uint64(s+1) / uint64(n))
		st := make([]int64, 0, ix.nterms+1)
		var pd []bat.OID
		var pb []float64
		for t := 0; t < ix.nterms; t++ {
			st = append(st, int64(len(pd)))
			tlo, thi := int(starts[t]), int(starts[t+1])
			p := tlo + sort.Search(thi-tlo, func(i int) bool { return docs[tlo+i] >= lo })
			for ; p < thi && docs[p] < hi; p++ {
				pd = append(pd, docs[p])
				pb = append(pb, bels[p])
			}
		}
		st = append(st, int64(len(pd)))
		dom := &bat.BAT{Head: bat.NewVoid(lo, int(hi-lo)), Tail: bat.NewVoid(lo, int(hi-lo))}
		dom.HSorted, dom.HKey = true, true
		shards[s] = e11Shard{seg: e11Encode(st, pd, pb), domain: dom}
	}
	return shards
}

type e11Hit struct {
	doc   bat.OID
	score float64
}

func e11HitWorse(a, b e11Hit) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.doc > b.doc
}

// e11Sharded runs the scatter-gather path: every shard scans concurrently
// with ONE shared pruning threshold, local top-ks merge through the
// bounded selector — exactly core.ShardedEngine's per-query dance at the
// physical layer. In the distributed topology the shared threshold is
// what RaiseTheta streaming approximates over the network.
func e11Sharded(shards []e11Shard, q []bat.OID, k int) ([]e11Hit, error) {
	shared := bat.NewTopKThreshold()
	return e11Scatter(shards, q, k, func(int) *bat.TopKThreshold { return shared })
}

// e11ShardedStatic is the same scatter with per-shard isolated
// thresholds: no bound ever crosses shard boundaries, the way a
// distributed scatter would behave with an empty memo and no streamed
// raises (each leg departs with a -Inf floor and never hears the
// router's rising bound). The A/B against e11Sharded measures what
// threshold sharing buys the scatter.
func e11ShardedStatic(shards []e11Shard, q []bat.OID, k int) ([]e11Hit, error) {
	return e11Scatter(shards, q, k, func(int) *bat.TopKThreshold { return bat.NewTopKThreshold() })
}

func e11Scatter(shards []e11Shard, q []bat.OID, k int, thetaOf func(s int) *bat.TopKThreshold) ([]e11Hit, error) {
	results := make([]*bat.BAT, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s := range shards {
		th := thetaOf(s)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := shards[s]
			results[s], errs[s] = bat.PrunedTopKSegs([]bat.PostingsSeg{sh.seg}, q, nil, ir.DefaultBelief, k, sh.domain, th)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := bat.NewBoundedTopK(k, e11HitWorse)
	for _, r := range results {
		for i := 0; i < r.Len(); i++ {
			merged.Offer(e11Hit{doc: r.Head.OIDAt(i), score: r.Tail.FloatAt(i)})
		}
	}
	return merged.Ranked(), nil
}

// TestE11ShardedEqualsSingle pins, at CI scale, that the scatter-gather
// merge with a shared threshold returns the single scan BUN-for-BUN.
func TestE11ShardedEqualsSingle(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	ix := mkE11Index(n)
	shards := mkE11Shards(ix, 8)
	const k = 10
	for _, q := range e11Queries(ix) {
		want, err := e11Pruned(ix, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e11Sharded(shards, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want.Len() {
			t.Fatalf("q=%v: %d hits vs %d", q, len(got), want.Len())
		}
		for i, h := range got {
			if h.doc != want.Head.OIDAt(i) || h.score != want.Tail.FloatAt(i) {
				t.Fatalf("q=%v rank %d: sharded (%d, %v), single (%d, %v)",
					q, i, h.doc, h.score, want.Head.OIDAt(i), want.Tail.FloatAt(i))
			}
		}
	}
}

func BenchmarkE11_ShardedTopK(b *testing.B) {
	ix := mkE11Index(e11N())
	shards := mkE11Shards(ix, 8)
	qs := e11Queries(ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e11Sharded(shards, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- threshold lifecycle (skewed corpus: the regime pruning targets) ----

// TestE11WarmThetaEqualsCold pins the exactness invariant the θ-memo
// leans on, at CI scale on the skewed corpus: a scan seeded with a
// completed run's terminal threshold returns the cold ranking
// BUN-for-BUN (the seed is a lower bound on the k-th best score, so it
// only skips non-contenders), and both scatter flavours — shared θ and
// isolated per-shard θ — equal the single scan.
func TestE11WarmThetaEqualsCold(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	ix := mkE11SkewedIndex(n)
	shards := mkE11Shards(ix, 8)
	for _, q := range e11Queries(ix) {
		for _, k := range []int{1, 10, 100} {
			cold := bat.NewTopKThreshold()
			want, err := e11PrunedTheta(ix, q, k, cold)
			if err != nil {
				t.Fatal(err)
			}
			warm := bat.NewTopKThreshold()
			warm.Raise(cold.Load())
			got, err := e11PrunedTheta(ix, q, k, warm)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("q=%v k=%d: warm %d hits vs cold %d", q, k, got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.Head.OIDAt(i) != want.Head.OIDAt(i) || got.Tail.FloatAt(i) != want.Tail.FloatAt(i) {
					t.Fatalf("q=%v k=%d rank %d: warm (%d, %v), cold (%d, %v)",
						q, k, i, got.Head.OIDAt(i), got.Tail.FloatAt(i), want.Head.OIDAt(i), want.Tail.FloatAt(i))
				}
			}
		}
		const k = 10
		single, err := e11Pruned(ix, q, k)
		if err != nil {
			t.Fatal(err)
		}
		for flavour, scatter := range map[string]func([]e11Shard, []bat.OID, int) ([]e11Hit, error){
			"shared": e11Sharded, "isolated": e11ShardedStatic,
		} {
			hits, err := scatter(shards, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != single.Len() {
				t.Fatalf("q=%v %s: %d hits vs %d", q, flavour, len(hits), single.Len())
			}
			for i, h := range hits {
				if h.doc != single.Head.OIDAt(i) || h.score != single.Tail.FloatAt(i) {
					t.Fatalf("q=%v %s rank %d: (%d, %v) vs single (%d, %v)",
						q, flavour, i, h.doc, h.score, single.Head.OIDAt(i), single.Tail.FloatAt(i))
				}
			}
		}
	}
}

// BenchmarkE11_WarmThetaTopKBlock is the repeat-query path: the block
// scan seeded with the terminal θ a prior identical query left in the
// memo. The gap to the same loop with fresh thresholds is what the
// θ-memo buys.
func BenchmarkE11_WarmThetaTopKBlock(b *testing.B) {
	ix := mkE11SkewedIndex(e11N())
	qs := e11Queries(ix)
	terminal := make([]float64, len(qs))
	for qi, q := range qs {
		th := bat.NewTopKThreshold()
		if _, err := e11PrunedTheta(ix, q, 10, th); err != nil {
			b.Fatal(err)
		}
		terminal[qi] = th.Load()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := bat.NewTopKThreshold()
		th.Raise(terminal[i%len(qs)])
		if _, err := e11PrunedTheta(ix, qs[i%len(qs)], 10, th); err != nil {
			b.Fatal(err)
		}
	}
}
