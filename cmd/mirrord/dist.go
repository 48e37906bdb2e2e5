// Distributed topology modes: -join runs this process as one networked
// shard member (primary, or a WAL-shipped follower with -follow); -replicas
// runs it as the shard router, the distributed face clients connect to.
// See docs/OPERATIONS.md, "Distributed topology".
package main

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"mirror/internal/core"
	"mirror/internal/dict"
	"mirror/internal/dist"
	"mirror/internal/mediaserver"
)

// epochHistoryDepth is how many retired epochs a shard member keeps
// servable: a router query pinned to tag T survives T having been
// superseded up to this many publish rounds ago (slow scatter legs,
// follower replay lag).
const epochHistoryDepth = 8

// parseJoin parses the -join layout position "i/N".
func parseJoin(s string) (index, count int) {
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &count); err != nil || count <= 0 || index < 0 || index >= count {
		log.Fatalf("mirrord: -join wants a layout position \"i/N\" with 0 <= i < N, got %q", s)
	}
	return index, count
}

// runShardMember serves one shard of a distributed layout: a WAL-shipping
// primary, or (with -follow) a read-only follower replaying the primary's
// stream. The router owns the index lifecycle — members never crawl,
// extract or refresh on their own.
func runShardMember(join, follow, name, dictAddr, addr string, fl memberFlags) {
	index, count := parseJoin(join)
	var m *core.Mirror
	if fl.storeDir != "" {
		var err error
		var stats core.RecoveryStats
		m, stats, err = core.OpenPersistent(core.PersistOptions{
			Dir: fl.storeDir, WALSync: fl.walSync, Verify: fl.verify, NoMmap: fl.noMmap,
			ShardIndex: index, ShardCount: count,
		})
		if err != nil {
			log.Fatalf("mirrord: open shard store: %v", err)
		}
		if stats.TornTail {
			log.Printf("mirrord: WARNING: truncated a torn WAL tail in %s (recovered to last consistent state)", fl.storeDir)
		}
		fmt.Printf("mirrord: shard store %s: %d BATs, %d WAL records replayed, %d items\n",
			fl.storeDir, stats.BATs, stats.WALRecords, m.Size())
	} else {
		var err error
		m, err = core.NewShardMember(index, count)
		if err != nil {
			log.Fatalf("mirrord: %v", err)
		}
	}
	m.KeepEpochHistory(epochHistoryDepth)

	regName := fmt.Sprintf("shard-%d-of-%d", index, count)
	var stopFollow chan struct{}
	if follow != "" {
		m.SetFollower()
		suffix := name
		if suffix == "" {
			suffix = fmt.Sprintf("pid%d", os.Getpid())
		}
		regName = fmt.Sprintf("%s-follower-%s", regName, suffix)
		stopFollow = make(chan struct{})
		go dist.Follow(m, follow, 200*time.Millisecond, 5*time.Second, stopFollow)
		fmt.Printf("mirrord: following primary at %s\n", follow)
	} else {
		m.EnableShipping()
	}
	m.SetResultCache(fl.cacheBytes)
	m.SetThetaMemo(fl.thetaMemoN)

	bound, stop, err := core.ServeAs(m, addr, dictAddr, "mirror-shard", regName)
	if err != nil {
		log.Fatalf("mirrord: %v", err)
	}
	defer stop()
	fmt.Printf("mirrord: %s serving at %s\n", m.Topology(), bound)

	ticker := make(<-chan time.Time)
	if m.Persistent() && fl.ckptEvery > 0 {
		t := time.NewTicker(fl.ckptEvery)
		defer t.Stop()
		ticker = t.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case <-ticker:
			st, err := m.Checkpoint()
			if err != nil {
				log.Printf("mirrord: periodic checkpoint: %v", err)
			} else if st.Written > 0 {
				fmt.Printf("mirrord: checkpoint: %d dirty BATs written, %d clean skipped\n", st.Written, st.Skipped)
			}
		case <-sig:
			if stopFollow != nil {
				close(stopFollow)
			}
			stop()
			if m.Persistent() {
				if _, err := m.Checkpoint(); err != nil {
					log.Printf("mirrord: final checkpoint: %v", err)
				}
			}
			return
		}
	}
}

// memberFlags carries the store/serving flags shared with standalone mode.
type memberFlags struct {
	storeDir   string
	walSync    bool
	verify     bool
	noMmap     bool
	ckptEvery  time.Duration
	cacheBytes int64
	thetaMemoN int
}

// runRouter serves the distributed router: discover the shard daemons
// from the dictionary, crawl the media server, route every document to
// its home shard, run the extraction pipeline router-side and publish the
// global model to every shard, then serve the standard Mirror DBMS
// surface. The router holds no store of its own — durability lives with
// the shard members; a restarted router re-crawls (deterministic order)
// and converges on the shards' surviving state.
func runRouter(replicas int, dictAddr, mediaURL, addr string, refrEvery time.Duration, thetaMemoN int) {
	e, err := dist.Discover(dictAddr, dist.Options{})
	if err != nil {
		log.Fatalf("mirrord: %v", err)
	}
	e.SetThetaMemo(thetaMemoN)
	if min := e.MinReplicas(); min < replicas {
		log.Fatalf("mirrord: -replicas %d: a shard has only %d replicas registered", replicas, min)
	}
	fmt.Printf("mirrord: %s\n", e.Topology())

	base := mediaURL
	if base == "" {
		base = discoverMediaServer(dictAddr)
	}
	fmt.Printf("mirrord: crawling %s\n", base)
	crawled, err := mediaserver.Crawl(base)
	if err != nil {
		log.Fatalf("mirrord: crawl: %v", err)
	}
	for _, it := range crawled {
		img, err := mediaserver.DecodeItemImage(it)
		if err != nil {
			log.Fatalf("mirrord: decode %s: %v", it.URL, err)
		}
		if err := e.AddImage(it.URL, it.Annotation, img); err != nil {
			log.Fatalf("mirrord: ingest %s: %v", it.URL, err)
		}
	}
	fmt.Printf("mirrord: routed %d items; running extraction pipeline...\n", e.Size())
	if err := e.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
		log.Fatalf("mirrord: pipeline: %v", err)
	}

	bound, stop, err := core.Serve(e, addr, dictAddr)
	if err != nil {
		log.Fatalf("mirrord: %v", err)
	}
	defer stop()
	fmt.Printf("mirrord: Mirror DBMS (distributed router) serving at %s\n", bound)

	refresh := make(<-chan time.Time)
	if refrEvery > 0 {
		t := time.NewTicker(refrEvery)
		defer t.Stop()
		refresh = t.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case <-refresh:
			st, err := e.Refresh()
			if err != nil {
				log.Printf("mirrord: periodic refresh: %v", err)
			} else if st.NewDocs > 0 {
				fmt.Printf("mirrord: refresh: +%d docs, epoch %d\n", st.NewDocs, st.Epoch)
			}
		case <-sig:
			stop()
			return
		}
	}
}

// discoverMediaServer resolves the media server base URL from the
// dictionary (shared between standalone and router modes).
func discoverMediaServer(dictAddr string) string {
	dc, err := dict.Dial(dictAddr)
	if err != nil {
		log.Fatalf("mirrord: %v", err)
	}
	infos, err := dc.List("mediaserver")
	dc.Close()
	if err != nil || len(infos) == 0 {
		log.Fatalf("mirrord: no media server registered (%v)", err)
	}
	return "http://" + infos[0].Addr
}
