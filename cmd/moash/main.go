// Command moash is the interactive Moa shell of the Mirror DBMS. It builds
// (or loads) a demo database and evaluates Moa statements; \mil shows the
// flattened MIL program of the last query, like the original system's
// debugging mode.
//
// Commands:
//
//	define ... ;                 schema definition
//	map[...](...);               any Moa query (use $q to bind query terms)
//	\rank <text>                 ranked annotation retrieval
//	\dual <text>                 dual-coding retrieval via the thesaurus
//	\terms <text>                thesaurus expansion of a text query
//	\q <w1> <w2> ...             set the `query` parameter terms
//	\topk <n>                    ranked cut for ad-hoc queries (pushed
//	                             into the plan optimizer; 0 = full result)
//	\plan <query;>               show the optimised logical plan; prints
//	                             "(cached plan)" when the shell's engine
//	                             served it from its plan cache
//	\mil                         toggle MIL display
//	\milrun <stmt;>              execute raw MIL against the stored BATs
//	                             (bindings persist across \milrun lines;
//	                             every builtin is documented in docs/MIL.md)
//	\sets                        list defined sets
//	\shards                      sharded-layout introspection (shard count,
//	                             per-shard document/BAT counts, store dirs)
//	\segments                    index-segment introspection: the serving
//	                             epoch, per-CONTREP segment directory
//	                             (docs/postings/terms per segment), and
//	                             pending (unindexed) document counts
//	\stats                       serving state: ingested/pending document
//	                             counts, the serving epoch stamp that
//	                             query answers carry over RPC, per-store
//	                             postings footprint (stored bytes vs the
//	                             computed 8-bytes-per-field size), block
//	                             decode/skip counters and
//	                             plan-cache hits/compiles (serving epoch
//	                             and the shell's own engine)
//	\help, \quit
//
// With -shards N the demo collection is hash-partitioned across N
// in-memory stores and queries scatter-gather through the sharded engine
// (the differential guarantee makes the results indistinguishable from
// the unsharded shell). -load accepts a standalone store (written by
// mirrord -store), opened read-only at its last checkpoint, as well as a
// sharded store root (mirrord -shards), which opens read-write — WAL
// tails replayed and truncated, orphans swept — so stop the server
// first. In sharded mode,
// query plumbing that is inherently single-store — \mil, \milrun, \plan,
// define — runs against shard 0 and says so.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mirror/internal/bat"
	"mirror/internal/core"
	"mirror/internal/corpus"
	"mirror/internal/ir"
	"mirror/internal/mil"
	"mirror/internal/moa"
)

func main() {
	var (
		n       = flag.Int("n", 40, "demo collection size")
		seed    = flag.Int64("seed", 1, "demo collection seed")
		load    = flag.String("load", "", "open a store directory instead of generating: a standalone store read-only at its last checkpoint, or a sharded store root read-write (stop the server first)")
		noPipe  = flag.Bool("no-pipeline", false, "skip the content pipeline (text-only)")
		shardsN = flag.Int("shards", 0, "shard the demo collection across N in-memory stores (0 = unsharded)")
		cacheB  = flag.Int64("query-cache", 0, "bytes of epoch-keyed query result cache for \\rank/\\dual (0 disables); invalidated automatically when \\refresh publishes a new epoch")
	)
	flag.Parse()

	var r core.Retriever
	var sharded *core.ShardedEngine
	switch {
	case *load != "":
		if _, err := os.Stat(*load + "/shard-000"); err == nil {
			e, stats, err := core.OpenShardedPersistent(core.ShardedPersistOptions{Dir: *load})
			if err != nil {
				log.Fatalf("moash: %v", err)
			}
			sharded, r = e, e
			fmt.Printf("moash: opened sharded store %s (%d shards, %d items)\n", *load, stats.Shards, e.Size())
		} else {
			m, err := core.Load(*load)
			if err != nil {
				log.Fatalf("moash: %v", err)
			}
			r = m
			fmt.Printf("moash: loaded %d items from %s\n", m.Size(), *load)
		}
	default:
		fmt.Printf("moash: generating demo collection (n=%d, seed=%d)...\n", *n, *seed)
		items := corpus.Generate(corpus.Config{N: *n, W: 64, H: 64, Seed: *seed, AnnotateRate: 0.7})
		if *shardsN > 0 {
			e, err := core.NewSharded(*shardsN)
			if err != nil {
				log.Fatalf("moash: %v", err)
			}
			sharded, r = e, e
		} else {
			m, err := core.New()
			if err != nil {
				log.Fatalf("moash: %v", err)
			}
			r = m
		}
		for _, it := range items {
			if err := r.AddImage(it.URL, it.Annotation, it.Scene.Img); err != nil {
				log.Fatalf("moash: %v", err)
			}
		}
		if !*noPipe {
			fmt.Println("moash: running extraction pipeline (segmentation, features, AutoClass, thesaurus)...")
			if err := r.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
				log.Fatalf("moash: %v", err)
			}
		}
	}
	r.SetResultCache(*cacheB)
	repl(r, sharded)
}

// localStore returns the store backing single-store plumbing (\milrun,
// \plan, define): the Mirror itself, or shard 0 of a sharded engine.
func localStore(r core.Retriever, sharded *core.ShardedEngine) *core.Mirror {
	if sharded != nil {
		return sharded.Shard(0)
	}
	return r.(*core.Mirror)
}

func repl(r core.Retriever, sharded *core.ShardedEngine) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	showMIL := false
	topK := 0
	var milEnv *mil.Env
	var queryTerms []string
	local := localStore(r, sharded)
	// The shell's own engine over the live database: raw Moa queries and
	// \plan go through its plan cache (\topk changes its options, which
	// are part of the cache key).
	eng := &moa.Engine{DB: local.Eng.DB, Opts: local.Eng.Opts}
	fmt.Println(`moash: the Mirror DBMS Moa shell — \help for commands`)
	for {
		fmt.Print("moa> ")
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		switch {
		case line == `\quit` || line == `\q!`:
			return
		case line == `\help`:
			fmt.Println("  <moa query>;        evaluate a Moa expression (query/stats params bound via \\q)")
			fmt.Println("  define ... ;        define a set")
			fmt.Println("  \\rank <text>        ranked annotation retrieval")
			fmt.Println("  \\dual <text>        dual-coding retrieval")
			fmt.Println("  \\terms <text>       thesaurus expansion")
			fmt.Println("  \\q w1 w2 ...        set query terms")
			fmt.Println("  \\mil                toggle MIL program display")
			fmt.Println("  \\plan <query;>      show the optimised logical plan (marks one served from the plan cache)")
			fmt.Println("  \\topk <n>           rank cut for ad-hoc queries (0 = full result)")
			fmt.Println("  \\milrun <stmt;>     run raw MIL against the stored BATs (see docs/MIL.md)")
			fmt.Println("  \\sets               list sets")
			fmt.Println("  \\shards             sharded-layout introspection")
			fmt.Println("  \\topology           serving topology (single store, sharded engine, distributed router)")
			fmt.Println("  \\segments           index-segment / epoch introspection")
			fmt.Println("  \\stats              serving state: size, pending, epoch, postings footprint, plan cache")
			fmt.Println("  \\quit")
		case line == `\topology`:
			fmt.Println(r.Topology())
		case line == `\shards`:
			if sharded == nil {
				fmt.Println("unsharded: one store answers everything (run with -shards N, or point -load at a sharded store root)")
				break
			}
			infos := sharded.ShardInfos()
			fmt.Printf("%d shards, %d documents, routing: fnv64a(url) mod %d\n", len(infos), sharded.Size(), len(infos))
			for _, info := range infos {
				dir := info.Dir
				if dir == "" {
					dir = "(in-memory)"
				}
				fmt.Printf("  shard %3d  %6d docs  %4d BATs  %s\n", info.Index, info.Docs, info.BATs, dir)
			}
		case line == `\stats`:
			fmt.Printf("%d documents ingested, %d pending, indexed %v, current %v\n",
				r.Size(), r.Pending(), r.Indexed(), r.Current())
			if st, ok := r.ServingEpoch(); ok {
				fmt.Printf("serving epoch %d over %d documents (the stamp every query answer carries)\n",
					st.Seq, st.Docs)
			} else {
				fmt.Println("no serving epoch published yet (run the pipeline first)")
			}
			ps := r.PostingsStats()
			for _, pi := range ps.Stores {
				if pi.Segments == 0 {
					continue
				}
				ratio := 1.0
				if pi.Bytes > 0 {
					ratio = float64(pi.RawBytes) / float64(pi.Bytes)
				}
				fmt.Printf("postings shard %d %-24s %2d segment(s) %8d postings %9d bytes (%9d at 8 B/field, %.2fx)\n",
					pi.Shard, pi.Prefix, pi.Segments, pi.Postings, pi.Bytes, pi.RawBytes, ratio)
			}
			if total := ps.BlocksDecoded + ps.BlocksSkipped; total > 0 {
				fmt.Printf("block scans: %d blocks decoded, %d skipped via max-belief bounds (%.0f%% skip rate)\n",
					ps.BlocksDecoded, ps.BlocksSkipped, 100*float64(ps.BlocksSkipped)/float64(total))
			}
			shellHits, shellMisses := eng.PlanCacheStats()
			fmt.Printf("plan cache: serving epoch %d hits, %d compiles; shell %d hits, %d compiles\n",
				ps.PlanHits, ps.PlanMisses, shellHits, shellMisses)
		case line == `\segments`:
			infos := r.Segments()
			if infos == nil {
				fmt.Println("no index epoch published yet (run the pipeline / BuildContentIndex)")
				break
			}
			if pending := r.Size() - segmentsDocs(infos); pending > 0 {
				fmt.Printf("%d documents pending the next refresh\n", pending)
			}
			for _, info := range infos {
				fmt.Printf("shard %d  %-40s epoch %-4d %6d docs  %d segment(s)\n",
					info.Shard, info.Prefix, info.Epoch, info.Docs, len(info.Segs))
				for _, seg := range info.Segs {
					fmt.Printf("    seg %-3d %6d docs  %8d postings  %6d terms  %9d bytes\n",
						seg.Slot, seg.Docs, seg.Postings, seg.Terms, seg.Bytes)
				}
			}
		case line == `\mil`:
			showMIL = !showMIL
			fmt.Printf("MIL display %v\n", showMIL)
		case strings.HasPrefix(line, `\milrun `):
			if milEnv == nil {
				milEnv = mil.NewEnv()
				milEnv.Out = os.Stdout
				if sharded != nil {
					fmt.Println("(sharded: raw MIL runs against shard 0's BATs)")
				}
				for name, b := range local.DB.Snapshot() {
					milEnv.Bind(name, b)
				}
			}
			runMIL(strings.TrimPrefix(line, `\milrun `), milEnv)
		case line == `\sets`:
			for _, def := range local.DB.Sets() {
				fmt.Printf("  %s (card %d)\n", def.Name, def.Card)
			}
		case strings.HasPrefix(line, `\q `):
			queryTerms = strings.Fields(strings.TrimPrefix(line, `\q `))
			fmt.Printf("query terms: %v\n", queryTerms)
		case strings.HasPrefix(line, `\topk `):
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, `\topk `), "%d", &topK); err != nil {
				fmt.Printf("error: %v\n", err)
			} else {
				eng.Opts.TopK = max(topK, 0)
				fmt.Printf("top-k cut: %d\n", topK)
			}
		case strings.HasPrefix(line, `\plan `):
			var params map[string]moa.Param
			if queryTerms != nil {
				params = ir.QueryParams(queryTerms)
			}
			if sharded != nil {
				fmt.Printf("(sharded: the plan below runs on each of the %d shards; results merge through the bounded top-k selector)\n", sharded.NumShards())
			}
			hits, _ := eng.PlanCacheStats()
			plan, err := eng.Explain(strings.TrimPrefix(line, `\plan `), params)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				break
			}
			if after, _ := eng.PlanCacheStats(); after > hits {
				fmt.Println("(cached plan)")
			}
			fmt.Print(plan)
		case strings.HasPrefix(line, `\rank `):
			hits, _, err := r.Run(core.Query{Stmt: core.StmtAnnotation, Text: strings.TrimPrefix(line, `\rank `), K: 10})
			printHits(hits, err)
		case strings.HasPrefix(line, `\dual `):
			hits, _, err := r.Run(core.Query{Stmt: core.StmtDual, Text: strings.TrimPrefix(line, `\dual `), K: 10})
			printHits(hits, err)
		case strings.HasPrefix(line, `\terms `):
			for _, c := range r.ExpandQuery(strings.TrimPrefix(line, `\terms `), 8) {
				fmt.Printf("  %s\n", c)
			}
		case strings.HasPrefix(line, "define"):
			if sharded != nil {
				fmt.Println("error: schema changes on a sharded store must go through the engine (define on shard 0 would desync the layout)")
				break
			}
			if err := local.DB.DefineFromSource(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		default:
			if sharded != nil {
				runShardedQuery(sharded, line, queryTerms, topK)
			} else {
				runQuery(eng, line, queryTerms, showMIL)
			}
		}
	}
}

// runShardedQuery evaluates a Moa query through the scatter-gather engine
// (no MIL display: N programs run, one per shard).
func runShardedQuery(e *core.ShardedEngine, src string, queryTerms []string, topK int) {
	res, _, err := e.QueryTopKStamped(src, queryTerms, topK)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	printRows(res)
}

func runQuery(eng *moa.Engine, src string, queryTerms []string, showMIL bool) {
	var params map[string]moa.Param
	if queryTerms != nil {
		params = ir.QueryParams(queryTerms)
	}
	c, err := eng.Compile(src, params)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if showMIL {
		fmt.Println("-- MIL --")
		fmt.Print(c.MIL())
		fmt.Println("---------")
	}
	res, err := c.Run()
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	printRows(res)
}

func printRows(res *moa.Result) {
	if res.Rows == nil {
		fmt.Printf("= %v\n", res.Scalar)
		return
	}
	const maxShow = 20
	for i, row := range res.Rows {
		if i >= maxShow {
			fmt.Printf("... (%d more)\n", len(res.Rows)-maxShow)
			break
		}
		fmt.Printf("  %4d  %v\n", uint64(row.OID), row.Value)
	}
}

// runMIL executes raw MIL source in the shell's persistent MIL
// environment (so `\milrun var x := ...;` then `\milrun print(x);`
// compose) and prints the value of the final statement.
func runMIL(src string, env *mil.Env) {
	if !strings.HasSuffix(strings.TrimSpace(src), ";") {
		src += ";"
	}
	prog, err := mil.Parse(src)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	v, err := mil.Run(prog, env)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	// print() already wrote its output; don't echo its value again.
	if n := len(prog.Stmts); n > 0 {
		if call, ok := prog.Stmts[n-1].Expr.(*mil.Call); ok && call.Fn == "print" {
			return
		}
	}
	switch x := v.(type) {
	case nil:
	case *bat.BAT:
		fmt.Println(x.String())
	default:
		fmt.Printf("= %s\n", bat.FormatValue(x))
	}
}

// segmentsDocs reports how many documents the serving epoch covers
// (engine-wide: the max over the per-CONTREP entries of each shard,
// summed across shards once per shard).
func segmentsDocs(infos []core.SegmentsInfo) int {
	perShard := map[int]int{}
	for _, info := range infos {
		if info.Docs > perShard[info.Shard] {
			perShard[info.Shard] = info.Docs
		}
	}
	total := 0
	for _, d := range perShard {
		total += d
	}
	return total
}

func printHits(hits []core.Hit, err error) {
	if err != nil {
		fmt.Printf("error: %v\n", err)
		if errors.Is(err, core.ErrNotIndexed) {
			fmt.Println("hint: no index epoch is published yet — run the extraction pipeline (mirrord, or moash without -no-pipeline); once built, new inserts are picked up by Refresh without rebuilding")
		}
		return
	}
	for i, h := range hits {
		fmt.Printf("  %2d. %-40s %.4f\n", i+1, h.URL, h.Score)
	}
}
