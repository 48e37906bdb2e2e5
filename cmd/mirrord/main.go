// Command mirrord is the Mirror DBMS server of Figure 1: it crawls the
// media server (the web robot), runs the extraction pipeline against the
// registered daemons, builds the meta-data database, and serves Moa and
// ranked-retrieval queries over RPC, registering itself with the data
// dictionary.
//
// With -store the database lives in a persistent BAT-buffer-pool
// directory: on startup the server recovers the last checkpoint (plus
// the WAL tail) instead of re-crawling, new inserts and feedback are
// WAL-logged, and checkpoints — periodic via -checkpoint-every, forced
// via the Mirror.Checkpoint RPC, and one final on shutdown — rewrite
// only the BATs that changed.
//
// With -shards N the collection is hash-partitioned across N member
// stores (store/shard-000 … shard-N-1, each with its own manifest, heap
// files and WAL) that recover in parallel and answer queries by
// scatter-gather; clients see the same RPC surface either way. The
// layout is a stored property of the shard manifests: a sharded store
// reopens with the shard count it was built with (-shards 0), and a
// contradicting count is refused — see docs/OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"mirror/internal/core"
	"mirror/internal/mediaserver"
	"mirror/internal/storage"
)

func main() {
	var (
		dictAddr = flag.String("dict", "", "data dictionary address (required)")
		mediaURL = flag.String("media", "", "media server base URL; discovered via the dictionary when empty")
		addr     = flag.String("addr", "127.0.0.1:8641", "listen address")
		local    = flag.Bool("local-pipeline", false, "run extraction in-process instead of via daemons")

		storeDir  = flag.String("store", "", "persistent store directory (BAT buffer pool + WAL); recovers on restart")
		walSync   = flag.Bool("wal-sync", false, "fsync the WAL on every append (durable per insert/feedback)")
		verify    = flag.Bool("verify", true, "checksum heap files when loading the store (reads every byte once at startup; set false for a pure O(working-set) mmap cold start)")
		noMmap    = flag.Bool("no-mmap", false, "load the store with the portable read path instead of mmap")
		ckptEvery = flag.Duration("checkpoint-every", 0, "checkpoint the store on this interval (0 = only on shutdown/RPC)")
		shards    = flag.Int("shards", 0, "shard the collection across N hash-partitioned stores (0 = reopen a store with its stored layout, or run unsharded when fresh)")
		refrEvery = flag.Duration("refresh-every", 0, "incrementally index newly ingested documents on this interval, publishing a fresh snapshot epoch (0 = only via the Mirror.Refresh RPC); queries are never blocked by a refresh")

		cacheBytes = flag.Int64("query-cache", 64<<20, "bytes of epoch-keyed query result cache (0 disables); entries are invalidated automatically when a refresh/recovery publishes a new epoch")
		thetaMemoN = flag.Int("theta-memo", 8192, "entries of epoch-keyed threshold memo: repeat ranked queries reopen their pruned scan with the previous run's terminal k-th score, turning them into near-pure block-directory walks (0 disables; pruning-only, results are unaffected)")

		join     = flag.String("join", "", "serve as networked shard member \"i/N\" of a distributed layout (the router owns the index lifecycle; no crawl)")
		follow   = flag.String("follow", "", "with -join: run as a replication follower of the shard primary at this address, replaying its WAL-shipped stream")
		name     = flag.String("name", "", "with -follow: unique follower suffix for dictionary registration (default pid<N>)")
		replicas = flag.Int("replicas", 0, "serve as the distributed shard router over the mirror-shard daemons in the dictionary; refuses to start unless every shard has at least this many replicas registered")
	)
	flag.Parse()
	if *dictAddr == "" {
		log.Fatal("mirrord: -dict is required")
	}
	if *shards < 0 {
		log.Fatal("mirrord: -shards must be >= 0")
	}
	if *replicas > 0 && *join != "" {
		log.Fatal("mirrord: -replicas (router) and -join (shard member) are mutually exclusive")
	}
	if *follow != "" && *join == "" {
		log.Fatal("mirrord: -follow needs -join \"i/N\" to state which shard it mirrors")
	}
	if *replicas > 0 {
		runRouter(*replicas, *dictAddr, *mediaURL, *addr, *refrEvery, *thetaMemoN)
		return
	}
	if *join != "" {
		runShardMember(*join, *follow, *name, *dictAddr, *addr, memberFlags{
			storeDir: *storeDir, walSync: *walSync, verify: *verify, noMmap: *noMmap,
			ckptEvery: *ckptEvery, cacheBytes: *cacheBytes,
			thetaMemoN: *thetaMemoN,
		})
		return
	}

	var r core.Retriever
	switch {
	case *storeDir != "":
		r = openStore(*storeDir, *shards, *walSync, *verify, *noMmap)
	case *shards >= 1:
		e, err := core.NewSharded(*shards)
		if err != nil {
			log.Fatalf("mirrord: %v", err)
		}
		r = e
	default:
		m, err := core.New()
		if err != nil {
			log.Fatalf("mirrord: %v", err)
		}
		r = m
	}
	r.SetResultCache(*cacheBytes)
	r.SetThetaMemo(*thetaMemoN)

	// A fully indexed, current recovered store serves immediately.
	// Anything else — fresh store, no store, a store recovered from a
	// crash before its first checkpoint (WAL inserts present but no
	// content index), or an indexed store with pending documents (rasters
	// are never persisted, so the crawl re-attaches them before the
	// catch-up Refresh below) — is built/repaired by crawling the media
	// server: known URLs get their rasters re-attached, new ones are
	// ingested, then the pipeline (full build) or an incremental refresh
	// runs.
	if r.Size() == 0 || !r.Indexed() || !r.Current() {
		base := *mediaURL
		if base == "" {
			base = discoverMediaServer(*dictAddr)
		}
		fmt.Printf("mirrord: crawling %s\n", base)
		crawled, err := mediaserver.Crawl(base)
		if err != nil {
			log.Fatalf("mirrord: crawl: %v", err)
		}
		known := map[string]bool{}
		for _, u := range r.URLs() {
			known[u] = true
		}
		for _, it := range crawled {
			img, err := mediaserver.DecodeItemImage(it)
			if err != nil {
				log.Fatalf("mirrord: decode %s: %v", it.URL, err)
			}
			if known[it.URL] {
				if err := r.AddRaster(it.URL, img); err != nil {
					log.Fatalf("mirrord: re-attach %s: %v", it.URL, err)
				}
				continue
			}
			if err := r.AddImage(it.URL, it.Annotation, img); err != nil {
				log.Fatalf("mirrord: ingest %s: %v", it.URL, err)
			}
		}
		rebuild := !r.Indexed()
		if !rebuild {
			// Incremental catch-up: the recovered epoch keeps serving while
			// the pending documents are assigned to the frozen codebooks
			// and published as a delta segment. A store that cannot refresh
			// (no codebook: distributed build or pre-codebook checkpoint)
			// falls back to the full rebuild below instead of dying.
			st, err := r.Refresh()
			if err != nil {
				log.Printf("mirrord: catch-up refresh failed (%v); falling back to a full rebuild", err)
				rebuild = true
			} else {
				fmt.Printf("mirrord: catch-up refresh: +%d docs, epoch %d (%d segments)\n",
					st.NewDocs, st.Epoch, st.Segments)
			}
		}
		if rebuild {
			fmt.Printf("mirrord: ingested %d items; running extraction pipeline...\n", r.Size())
			opts := core.DefaultIndexOptions()
			if *local {
				err = r.BuildContentIndex(opts)
			} else {
				err = r.BuildContentIndexDistributed(opts, *dictAddr)
			}
			if err != nil {
				log.Fatalf("mirrord: pipeline: %v", err)
			}
		}
		if r.Persistent() {
			st, err := r.Checkpoint()
			if err != nil {
				log.Fatalf("mirrord: checkpoint: %v", err)
			}
			fmt.Printf("mirrord: initial checkpoint: %d BATs written (%d bytes)\n", st.Written, st.Bytes)
		}
	}

	bound, stop, err := core.Serve(r, *addr, *dictAddr)
	if err != nil {
		log.Fatalf("mirrord: %v", err)
	}
	defer stop()
	fmt.Printf("mirrord: Mirror DBMS serving at %s\n", bound)

	ticker := make(<-chan time.Time)
	if r.Persistent() && *ckptEvery > 0 {
		t := time.NewTicker(*ckptEvery)
		defer t.Stop()
		ticker = t.C
	}
	// The refresh loop is the background indexing thread: newly ingested
	// documents become retrievable without any restart or rebuild, and
	// delta-segment compaction rides along. Queries keep serving the
	// previous epoch throughout each tick.
	refresh := make(<-chan time.Time)
	if *refrEvery > 0 {
		t := time.NewTicker(*refrEvery)
		defer t.Stop()
		refresh = t.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case <-ticker:
			st, err := r.Checkpoint()
			if err != nil {
				log.Printf("mirrord: periodic checkpoint: %v", err)
			} else if st.Written > 0 {
				fmt.Printf("mirrord: checkpoint: %d dirty BATs written, %d clean skipped\n", st.Written, st.Skipped)
			}
		case <-refresh:
			st, err := r.Refresh()
			if err != nil {
				log.Printf("mirrord: periodic refresh: %v", err)
			} else if st.NewDocs > 0 {
				fmt.Printf("mirrord: refresh: +%d docs, epoch %d (%d merges, %d segments)\n",
					st.NewDocs, st.Epoch, st.Merges, st.Segments)
			}
		case <-sig:
			// Stop accepting new connections before the final flush.
			// Deliberately no ClosePersistent: in-flight queries may
			// still hold mmap-backed BATs, and process exit reclaims
			// the mappings and file handles safely.
			stop()
			if r.Persistent() {
				st, err := r.Checkpoint()
				if err != nil {
					log.Printf("mirrord: final checkpoint: %v", err)
				} else {
					fmt.Printf("mirrord: final checkpoint: %d written, %d skipped\n", st.Written, st.Skipped)
				}
			}
			return
		}
	}
}

// openStore opens the persistent store, standalone or sharded. Layout
// resolution: an explicit -shards N >= 1 demands a sharded store with N
// members (fresh stores are created that way); -shards 0 reopens whatever
// layout the directory holds, defaulting to standalone for fresh stores.
func openStore(dir string, shards int, walSync, verify, noMmap bool) core.Retriever {
	standalone := storage.IsStore(dir)
	_, shard0Err := os.Stat(filepath.Join(dir, "shard-000"))
	sharded := shards >= 1 || shard0Err == nil
	if sharded && standalone {
		log.Fatalf("mirrord: %s holds a standalone store; it cannot be opened with -shards (resharding in place is not supported)", dir)
	}
	if sharded {
		e, stats, err := core.OpenShardedPersistent(core.ShardedPersistOptions{
			Dir: dir, Shards: shards, WALSync: walSync, Verify: verify, NoMmap: noMmap,
		})
		if err != nil {
			log.Fatalf("mirrord: open sharded store: %v", err)
		}
		for _, s := range stats.TornTails {
			log.Printf("mirrord: WARNING: truncated a torn WAL tail on shard %d (recovered to last consistent state)", s)
		}
		fmt.Printf("mirrord: sharded store %s: %d shards, %d BATs, %d WAL records replayed, %d items\n",
			dir, stats.Shards, stats.BATs, stats.WALRecords, e.Size())
		return e
	}
	m, stats, err := core.OpenPersistent(core.PersistOptions{
		Dir: dir, WALSync: walSync, Verify: verify, NoMmap: noMmap,
	})
	if err != nil {
		log.Fatalf("mirrord: open store: %v", err)
	}
	if stats.TornTail {
		log.Printf("mirrord: WARNING: truncated a torn WAL tail in %s (recovered to last consistent state)", dir)
	}
	fmt.Printf("mirrord: store %s: %d BATs, %d WAL records replayed, %d items\n",
		dir, stats.BATs, stats.WALRecords, m.Size())
	return m
}
