package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mirror/internal/core"
)

// scale sizes a run. "full" is what BENCHMARK.json measures; "smoke"
// keeps every code path alive under `go test` in a few seconds.
type scale struct {
	Docs      int // corpus size of the read-only workloads
	Base      int // documents in the one full BuildContentIndex
	Chunks    int // refresh chunks the rest is loaded in
	Preload   int // ingest-mixed: documents present before the script
	Burst     int // ingest-mixed: documents per burst
	Bursts    int // ingest-mixed: bursts per 8 s of run time (scaled by -seconds)
	HotPool   int // text-hot: distinct texts
	SetupReps int // set-ups per run; setup_s is their median
	Verify    int // text replies verified against the oracle
	VerifyDC  int // dual-coding replies verified against in-process evaluation
	LadderTxt int // traced text ops
	LadderDC  int // traced dual-coding ops
	MaxOps    int // per-client op cap replacing the time window; 0 = timed
}

var scales = map[string]scale{
	"full": {
		Docs: 8000, Base: 400, Chunks: 4, Preload: 2000, Burst: 200, Bursts: 36,
		HotPool: 256, SetupReps: 3, Verify: 512, VerifyDC: 64, LadderTxt: 2000, LadderDC: 40,
	},
	"smoke": {
		Docs: 500, Base: 100, Chunks: 2, Preload: 200, Burst: 50, Bursts: 3,
		HotPool: 32, SetupReps: 1, Verify: 64, VerifyDC: 8, LadderTxt: 50, LadderDC: 5, MaxOps: 100,
	},
}

// workload is one named traffic mix over one served topology. Names are
// fixed: later issues cite them.
type workload struct {
	name   string
	topo   topology
	dual   bool // TextQuery(dual=true)
	hot    bool // Zipf over a fixed pool instead of never-repeating texts
	ingest bool // writer script beside the reader
}

var workloads = []workload{
	{name: "text-cold", topo: topoSingle},
	{name: "text-hot", topo: topoSingle, hot: true},
	{name: "dual-coding", topo: topoSingle, dual: true},
	{name: "ingest-mixed", topo: topoPersistent, ingest: true},
	{name: "scatter-dist", topo: topoDist},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// source is the workload's op sequence for a seed.
func (w workload) source(seed int64, docs []doc, sc scale) opSource {
	if w.hot {
		return newHotSource(seed, docs, sc.HotPool)
	}
	return newColdSource(seed, docs)
}

// metricDef names one metric with its unit. The tables below and
// BENCHMARK.json must agree (bench_test.go checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
	{"query_qps", "1/s"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"rpc_hop_us", "us"},
	{"core_self_us", "us"},
	{"result_cache_hit_rate", "ratio"},
	{"theta_memo_hit_rate", "ratio"},
	{"moa_compile_us", "us"},
	{"moa_exec_us", "us"},
	{"bat_scan_us", "us"},
	{"blocks_decoded", "count"},
	{"blocks_skipped", "count"},
	{"block_skip_rate", "ratio"},
	{"thesaurus_expand_us", "us"},
	{"content_score_ms", "ms"},
	{"leg_max_us", "us"},
	{"gather_self_us", "us"},
	{"theta_pushes_per_query", "count"},
	{"ingest_docs_per_s", "1/s"},
	{"refresh_ms", "ms"},
	{"checkpoint_ms", "ms"},
	{"checkpoint_bytes_per_doc", "B"},
	{"wal_bytes_per_doc", "B"},
	{"store_bytes_per_doc", "B"},
	{"recovery_s", "s"},
	{"recovery_wal_records", "count"},
	{"trace_overhead_share", "ratio"},
}

// report is one run's outcome.
type report struct {
	workload    string
	attempted   int
	failed      int
	values      map[string]float64 // by metric name; unset per-layer metrics read 0 (layer bypassed)
	diagnostics []string           // printed, never gated
	notes       []string           // wrong answers and failed predictions
}

func (r *report) diag(format string, args ...any) {
	r.diagnostics = append(r.diagnostics, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrong counts bad answers into the failure total.
func (r *report) wrong(what string, bad int, first error) {
	if bad > 0 {
		r.failed += bad
		r.note("WRONG ANSWER: %d %s; first: %v", bad, what, first)
	}
}

// stopAfter returns a channel closed after d — or, at a scale whose runs
// are bounded by op count, one that never closes.
func (sc scale) stopAfter(d time.Duration) <-chan struct{} {
	if sc.MaxOps > 0 {
		return nil
	}
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// window splits -seconds into warm-up and measured time.
func window(seconds int) (warm, measure time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 8, total - total/8
}

// runUntraced measures a workload's end-to-end metrics: tracing off,
// production cache settings, two closed-loop clients.
func runUntraced(w workload, seed int64, seconds int, sc scale, outDir string) (*report, error) {
	if w.ingest {
		return runIngestMixed(w, seed, seconds, sc, outDir, nil)
	}
	docs := makeCorpus(seed, sc.Docs)
	sys, setupS, err := timedSetup(w.topo, docs, sc, outDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	warm, measure := window(seconds)
	if sc.MaxOps > 0 {
		warm = 0
	}
	keep := sc.Verify
	if w.dual {
		keep = sc.VerifyDC
	}
	res, err := drive(driveOpts{
		addr: sys.addr, src: w.source(seed, docs, sc), dual: w.dual, clients: clients,
		warm: warm, stop: sc.stopAfter(warm + measure), maxOps: sc.MaxOps, keep: keep / clients,
	})
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, attempted: res.attempted, failed: res.failed, values: map[string]float64{"setup_s": setupS}}
	if res.err != nil {
		rep.note("FAILED OP: %d of %d ops failed; first: %v", res.failed, res.attempted, res.err)
	}
	rep.latency(res, nil)
	if sys.store != nil {
		// Asserted, not assumed: the never-repeating mixes never hit the
		// result cache, the hot pool stays in it.
		rc, tm := sys.store.ResultCacheStats(), sys.store.ThetaMemoStats()
		rep.values["result_cache_hits"], rep.values["result_cache_misses"] = float64(rc.Hits), float64(rc.Misses)
		rep.diag("result_cache_hit_rate %.4f (%d hits, %d misses, %.1f MiB held)", share(rc.Hits, rc.Misses), rc.Hits, rc.Misses, float64(rc.Bytes)/(1<<20))
		rep.diag("theta_memo_hit_rate %.4f (%d hits, %d misses)", share(tm.Hits, tm.Misses), tm.Hits, tm.Misses)
		if w.hot {
			rep.predict(rc.Misses <= int64(clients*sc.HotPool), "text-hot's pool of %d texts should stay cached: %d result-cache misses", sc.HotPool, rc.Misses)
		} else {
			rep.predict(rc.Hits == 0, "%s should never repeat a text: %d result-cache hits", w.name, rc.Hits)
		}
	}

	replies := sample(res.kept, keep)
	if w.dual {
		sys.store.SetResultCache(0) // recompute, do not read back what the RPC call cached
		bad, first := verify(replies, checkDual(sys.store))
		rep.wrong(fmt.Sprintf("of %d dual-coding replies differ from the in-process evaluation", len(replies)), bad, first)
	} else {
		bad, first := verify(replies, checkText(newOracle(docs)))
		rep.wrong(fmt.Sprintf("of %d replies differ from the oracle's one-shot build", len(replies)), bad, first)
	}
	rep.diag("verified %d replies", len(replies))
	return rep, nil
}

// latency fills the query metrics from a drive: medians over slices of
// the window (see sliced; nil cuts = equal time slices), with the whole
// window's quantiles as diagnostics.
func (r *report) latency(res *driveResult, cuts []time.Duration) {
	p50, p95, qps, slices := res.sliced(cuts)
	r.values["query_p50_us"], r.values["query_p95_us"], r.values["query_qps"] = p50, p95, qps
	n := len(res.lat)
	r.diag("%d query samples in %.3f s, %d slices (about %d samples beyond each slice's p95) with p50 %.1f us",
		n, res.elapsed.Seconds(), len(slices), n/len(slices)/20, slices)
	r.diag("whole window: p50 %.1f us, p95 %.1f us, p99 %.1f us, max %.1f us, %.1f queries/s",
		quantile(res.lat, 0.50), quantile(res.lat, 0.95), quantile(res.lat, 0.99), res.lat[n-1], float64(n)/res.elapsed.Seconds())
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runIngestMixed is the write-beside-read workload, traced (rec != nil:
// writer alone, spans per burst) or untraced (one writer, one reader).
func runIngestMixed(w workload, seed int64, seconds int, sc scale, outDir string, rec *recorder) (*report, error) {
	bursts := max(checkpointEvery, sc.Bursts*seconds/8)
	if sc.MaxOps > 0 {
		bursts = sc.Bursts
	}
	docs := makeCorpus(seed, sc.Preload+(bursts+1)*sc.Burst)
	preload, stream, tail := docs[:sc.Preload], docs[sc.Preload:len(docs)-sc.Burst], docs[len(docs)-sc.Burst:]
	if rec != nil {
		sc.SetupReps = 1
	}
	sys, setupS, err := timedSetup(w.topo, preload, sc, outDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep := &report{workload: w.name, values: map[string]float64{"setup_s": setupS}}

	// The reader runs the text-cold mix over the preloaded vocabulary
	// until the script ends.
	stop := make(chan struct{})
	var read *driveResult
	var readErr error
	done := make(chan struct{})
	if rec == nil {
		go func() {
			defer close(done)
			read, readErr = drive(driveOpts{
				addr: sys.addr, src: newColdSource(seed, preload), clients: 1, stop: stop, keep: sc.Verify / 2,
			})
		}()
	} else {
		close(done)
	}
	script, err := runScript(sys, stream, bursts, sc.Burst, rec)
	close(stop)
	<-done
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	rep.attempted, rep.failed = script.attempted, script.failed
	if script.err != nil {
		rep.note("FAILED OP: %d of %d ingest ops failed; first: %v", script.failed, script.attempted, script.err)
	}

	var replies []reply
	if read != nil {
		rep.attempted += read.attempted
		rep.failed += read.failed
		if read.err != nil {
			rep.note("FAILED OP: %d of %d queries failed; first: %v", read.failed, read.attempted, read.err)
		}
		// One slice per checkpoint cycle: every slice sees the same writer
		// work (three bursts, three refreshes, one checkpoint).
		cuts := make([]time.Duration, len(script.cycleEnds))
		for i, end := range script.cycleEnds {
			cuts[i] = end.Sub(read.origin)
		}
		rep.latency(read, cuts)
		replies = sample(read.kept, sc.Verify)
	}

	probe := newColdSource(seed^0x7ec0, preload).next()
	recov, err := recoverStore(sys, tail, len(docs), probe)
	rep.attempted++
	if err != nil {
		if recov == nil {
			return nil, err
		}
		rep.wrong("recovery check", 1, err)
	}
	replies = append(replies, recov.first)
	bad, first := verify(replies, checkText(newOracle(docs)))
	rep.wrong(fmt.Sprintf("of %d stamped replies differ from the oracle at their stamped prefix", len(replies)), bad, first)
	rep.diag("verified %d replies over the stamped prefixes, store reopened with %d docs", len(replies), len(docs))

	v := rep.values
	v["ingest_docs_per_s"] = float64(script.docs) / script.wall.Seconds()
	v["refresh_ms"] = quantile(script.refreshMS, 0.5)
	v["checkpoint_ms"] = quantile(script.ckptMS, 0.5)
	v["checkpoint_bytes_per_doc"] = float64(script.ckptBytes) / float64(script.docs)
	v["wal_bytes_per_doc"] = float64(script.walBytes) / float64(script.docs)
	v["store_bytes_per_doc"] = float64(script.storeB) / float64(script.storeDocs)
	v["recovery_s"] = recov.seconds
	v["recovery_wal_records"] = float64(recov.walRecords)
	rep.diag("script: %d bursts x %d docs in %.3f s, %d merges, %d segments at the end; WAL fsync off (the mirrord default)",
		bursts, sc.Burst, script.wall.Seconds(), script.merges, script.segments)
	if rec == nil { // the traced run prints them as its metrics
		for _, name := range []string{"ingest_docs_per_s", "refresh_ms", "checkpoint_ms", "checkpoint_bytes_per_doc",
			"wal_bytes_per_doc", "store_bytes_per_doc", "recovery_s", "recovery_wal_records"} {
			rep.diag("%s %.4f", name, v[name])
		}
	}
	return rep, nil
}

// runTraced measures a workload's per-layer metrics and writes the spans
// to <outDir>/trace-<workload>.jsonl.
func runTraced(w workload, seed int64, seconds int, sc scale, outDir string) (*report, error) {
	rec := &recorder{origin: time.Now()}
	var rep *report
	var err error
	if w.ingest {
		rep, err = runIngestMixed(w, seed, seconds, sc, outDir, rec)
	} else {
		rep, err = runLadder(w, seed, seconds, sc, rec)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	rep.diag("%d spans written to %s", len(rec.spans), path)
	return rep, nil
}

// runLadder is the traced run of a read-only workload: short untraced
// and traced closed loops under production caches (their difference is
// the tracing overhead; together they give the cache hit rates), then
// the ladder with caches pinned off.
func runLadder(w workload, seed int64, seconds int, sc scale, rec *recorder) (*report, error) {
	docs := makeCorpus(seed, sc.Docs)
	sys, _, err := setup(w.topo, docs, sc, "")
	if err != nil {
		return nil, err
	}
	defer sys.close()
	src := w.source(seed, docs, sc)
	warm, measure := window(seconds)
	loop := func(d time.Duration, traced bool) (*driveResult, error) {
		return drive(driveOpts{addr: sys.addr, src: src, dual: w.dual, clients: clients,
			stop: sc.stopAfter(d), maxOps: sc.MaxOps, traced: traced})
	}
	if _, err := loop(warm, false); err != nil {
		return nil, err
	}
	var rc0 core.CacheStats
	var tm0 core.ThetaMemoStats
	if sys.store != nil {
		rc0, tm0 = sys.store.ResultCacheStats(), sys.store.ThetaMemoStats()
	}
	// Untraced and traced loops alternate A B B A, so that a drift of the
	// machine over the run cancels out of their difference.
	var plain, traced []float64
	rep := &report{workload: w.name, values: map[string]float64{}}
	for _, on := range []bool{false, true, true, false} {
		res, err := loop(measure/8, on)
		if err != nil {
			return nil, err
		}
		rep.attempted += res.attempted
		rep.failed += res.failed
		if on {
			traced = append(traced, res.lat...)
			rec.spans = append(rec.spans, res.spans...)
		} else {
			plain = append(plain, res.lat...)
		}
	}
	sort.Float64s(plain)
	sort.Float64s(traced)
	v := rep.values
	if sys.store != nil {
		rc, tm := sys.store.ResultCacheStats(), sys.store.ThetaMemoStats()
		v["result_cache_hit_rate"] = share(rc.Hits-rc0.Hits, rc.Misses-rc0.Misses)
		v["theta_memo_hit_rate"] = share(tm.Hits-tm0.Hits, tm.Misses-tm0.Misses)
	}
	served := quantile(plain, 0.5)
	v["trace_overhead_share"] = (quantile(traced, 0.5) - served) / served
	rep.diag("served (untraced, %d clients, production caches) p50 %.1f us over %d ops; traced p50 %.1f us over %d ops",
		clients, served, len(plain), quantile(traced, 0.5), len(traced))

	// The ladder replays the fixed prefix of the SAME op sequence.
	sys.setCaches(false)
	n := sc.LadderTxt
	if w.dual {
		n = sc.LadderDC
	}
	ops := take(w.source(seed, docs, sc), n)
	rep.attempted += n
	var decoded, skipped int64 // blocks, over one serial pass of the prefix
	switch {
	case w.dual:
		l, err := runDualLadder(sys, ops, rec)
		if err != nil {
			return nil, err
		}
		rep.wrong("dual-coding ops answered differently over RPC and in process", l.mismatches, l.firstMismatch)
		decoded, skipped = l.decoded, l.skipped
		v["thesaurus_expand_us"] = l.expand.p50()
		v["content_score_ms"] = l.content.p50() / 1e3
		v["core_self_us"] = selfP50(l.core, l.expand, l.content, l.text)
		v["rpc_hop_us"] = selfP50(l.rpc, l.core)
		rep.ladder(served, v["result_cache_hit_rate"],
			[]*rung{l.expand, l.content, l.text, l.core, l.rpc},
			[]float64{l.expand.p50(), l.content.p50(), l.text.p50(), v["core_self_us"], v["rpc_hop_us"]})
		rep.predict(l.content.p50() > l.rpc.p50()/2,
			"content_score_ms should dominate dual-coding: it is %.0f us of the %.0f us RPC rung", l.content.p50(), l.rpc.p50())
	case w.topo == topoDist:
		l, err := runDistLadder(sys, ops, rec)
		if err != nil {
			return nil, err
		}
		rep.wrong("ops answered differently by the served router and the in-process gather", l.mismatches, l.firstMismatch)
		decoded, skipped = l.decoded, l.skipped
		v["leg_max_us"] = l.legMax.p50()
		v["gather_self_us"] = selfP50(l.gather, l.legMax)
		v["rpc_hop_us"] = selfP50(l.rpc, l.gather)
		v["theta_pushes_per_query"] = float64(l.pushes) / float64(n)
		rep.ladder(served, 0,
			[]*rung{l.legMax, l.gather, l.rpc},
			[]float64{l.legMax.p50(), v["gather_self_us"], v["rpc_hop_us"]})
	default:
		l, err := runTextLadder(sys, ops, rec)
		if err != nil {
			return nil, err
		}
		rep.wrong("ops answered differently at the bat, moa, core and rpc rungs", l.mismatches, l.firstMismatch)
		decoded, skipped = l.decoded, l.skipped
		v["bat_scan_us"] = l.bat.p50()
		v["moa_compile_us"] = l.compile.p50()
		v["moa_exec_us"] = selfP50(l.run, l.bat)
		v["core_self_us"] = selfP50(l.core, l.compile, l.run)
		v["rpc_hop_us"] = selfP50(l.rpc, l.core)
		hit := v["result_cache_hit_rate"]
		rep.ladder(served, hit,
			[]*rung{l.bat, l.compile, l.run, l.core, l.rpc},
			[]float64{v["bat_scan_us"], v["moa_compile_us"], v["moa_exec_us"], v["core_self_us"], v["rpc_hop_us"]})
		moa := l.compile.p50() + l.run.p50()
		rep.predict(l.bat.p50() <= l.run.p50() && moa <= l.core.p50()*1.02 && l.core.p50() <= l.rpc.p50(),
			"rungs should be monotone at p50: bat %.1f <= moa.Run %.1f, moa %.1f <= core %.1f <= rpc %.1f us",
			l.bat.p50(), l.run.p50(), moa, l.core.p50(), l.rpc.p50())
		// Below the result cache a hit does none of the work, so a layer's
		// share of the served latency is its miss cost times the miss rate.
		batShare := (1 - hit) * v["bat_scan_us"] / served
		if w.hot {
			rep.predict(hit >= 0.95, "text-hot should be served from the result cache: hit rate %.4f < 0.95", hit)
			rep.predict(batShare < 0.05, "bat_scan_us should be < 5 %% of text-hot's served p50: it is %.1f %%", 100*batShare)
			rep.predict(v["rpc_hop_us"] > served/2, "rpc_hop_us should be the largest part of text-hot: %.1f of %.1f us served", v["rpc_hop_us"], served)
		} else {
			rep.predict(hit < 0.01, "text-cold should miss the result cache: hit rate %.4f", hit)
			rep.predict(v["bat_scan_us"] >= max(v["moa_compile_us"], v["moa_exec_us"], v["core_self_us"], v["rpc_hop_us"]),
				"bat_scan_us should be the largest self time on text-cold: bat %.1f, compile %.1f, exec %.1f, core %.1f, rpc hop %.1f us",
				v["bat_scan_us"], v["moa_compile_us"], v["moa_exec_us"], v["core_self_us"], v["rpc_hop_us"])
		}
	}
	v["blocks_decoded"], v["blocks_skipped"] = float64(decoded), float64(skipped)
	v["block_skip_rate"] = share(skipped, decoded)
	rep.predict(v["trace_overhead_share"] <= 0.10, "tracing should cost <= 10 %% at p50: trace_overhead_share %.3f", v["trace_overhead_share"])
	return rep, nil
}

// ladder prints the layer table of a traced run — every rung's p50 and
// every layer's self time — and checks that the self times sum to the
// top rung, the client-observed whole.
func (r *report) ladder(served, hitRate float64, rungs []*rung, selfs []float64) {
	top := rungs[len(rungs)-1].p50()
	sum := 0.0
	r.diag("%-28s %12s %12s %8s", "rung (caches pinned off)", "p50 us", "self us", "share")
	for i, g := range rungs {
		sum += selfs[i]
		r.diag("%-28s %12.1f %12.1f %7.1f%%", g.name, g.p50(), selfs[i], 100*selfs[i]/top)
	}
	r.diag("self times sum to %.1f us; the top rung is %.1f us; served p50 was %.1f us at result-cache hit rate %.4f", sum, top, served, hitRate)
	r.predict(sum >= 0.9*top && sum <= 1.1*top, "self times should sum to the RPC rung within 10 %%: %.1f vs %.1f us", sum, top)
}

// predict records a prediction (README, "The traced run") that this run
// contradicts.
func (r *report) predict(ok bool, format string, args ...any) {
	if !ok {
		r.note("PREDICTION FAILED: "+format, args...)
	}
}
