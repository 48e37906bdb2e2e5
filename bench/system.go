package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"mirror/internal/core"
	"mirror/internal/dist"
)

// Production defaults of cmd/mirrord (-query-cache, -theta-memo,
// epochHistoryDepth); the benchmark serves what the daemon serves.
const (
	resultCacheBytes = 64 << 20
	thetaMemoEntries = core.DefaultThetaMemoEntries
	epochHistory     = 8
)

// topology names the served system a workload runs against.
type topology int

const (
	topoSingle     topology = iota // one in-memory core.Mirror
	topoPersistent                 // one OpenPersistent store, WAL on, -wal-sync off
	topoDist                       // dist.RouterEngine over 2 shard primaries (1 replica each)
)

// system is one served Mirror DBMS: stores, listeners and the address
// clients dial. Everything is in this process, every boundary a real
// 127.0.0.1 RPC connection.
type system struct {
	retr    core.Retriever // what addr serves
	store   *core.Mirror   // the single / persistent store; nil for topoDist
	router  *dist.RouterEngine
	members []*core.Mirror // shard primaries (topoDist)
	legs    []string       // their addresses
	addr    string
	dir     string // persistent store directory
	stops   []func()
}

// stopServing closes every listener, draining in-flight handlers.
func (s *system) stopServing() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// close stops serving, releases the stores and removes the persistent
// store's directory.
func (s *system) close() {
	s.stopServing()
	if s.router != nil {
		s.router.ClosePersistent() // closes the router's shard connections
	}
	if s.store != nil {
		s.store.ClosePersistent() // no-op for in-memory stores
	}
	os.RemoveAll(s.dir) // "" removes nothing
}

// setCaches sets (or, with on=false, pins off) the result cache and the
// θ-memo on every store of the system. The traced ladder pins them off
// so that every rung does the same work.
func (s *system) setCaches(on bool) {
	bytes, entries := int64(0), 0
	if on {
		bytes, entries = resultCacheBytes, thetaMemoEntries
	}
	stores := s.members
	if s.store != nil {
		stores = []*core.Mirror{s.store}
	}
	for _, m := range stores {
		m.SetResultCache(bytes)
		m.SetThetaMemo(entries)
	}
	if s.router != nil {
		s.router.SetThetaMemo(entries)
	}
}

// load ingests docs through the public entry points only: AddImage with
// real rasters, one small full BuildContentIndex (AutoClass-bound), then
// the bulk in refresh chunks — the path a growing library takes.
func load(r core.Retriever, docs []doc, sc scale) error {
	add := func(ds []doc) error {
		for i := range ds {
			if err := r.AddImage(ds[i].URL, ds[i].Annotation, ds[i].Img); err != nil {
				return err
			}
		}
		return nil
	}
	base := min(sc.Base, len(docs))
	if err := add(docs[:base]); err != nil {
		return err
	}
	if err := r.BuildContentIndex(core.DefaultIndexOptions()); err != nil {
		return fmt.Errorf("base build: %w", err)
	}
	rest := docs[base:]
	for c := 0; c < sc.Chunks && len(rest) > 0; c++ {
		n := len(rest) / (sc.Chunks - c)
		if err := add(rest[:n]); err != nil {
			return err
		}
		if _, err := r.Refresh(); err != nil {
			return fmt.Errorf("refresh chunk %d: %w", c, err)
		}
		rest = rest[n:]
	}
	return nil
}

// setup builds and serves the system from an empty process state and
// returns once a client got its first answer; the elapsed time is one
// setup_s sample.
func setup(topo topology, docs []doc, sc scale, dir string) (*system, time.Duration, error) {
	start := time.Now()
	s := &system{dir: dir}
	fail := func(err error) (*system, time.Duration, error) {
		s.close()
		return nil, 0, err
	}
	switch topo {
	case topoSingle:
		m, err := core.New()
		if err != nil {
			return fail(err)
		}
		s.store, s.retr = m, m
	case topoPersistent:
		m, _, err := core.OpenPersistent(core.PersistOptions{Dir: dir})
		if err != nil {
			return fail(err)
		}
		s.store, s.retr = m, m
	case topoDist:
		const shards = 2
		addrs := make([][]string, shards)
		for i := 0; i < shards; i++ {
			m, err := core.NewShardMember(i, shards)
			if err != nil {
				return fail(err)
			}
			m.KeepEpochHistory(epochHistory)
			m.EnableShipping()
			addr, stop, err := core.ServeAs(m, "127.0.0.1:0", "", "mirror-shard", fmt.Sprintf("shard-%d-of-%d", i, shards))
			if err != nil {
				return fail(err)
			}
			s.members = append(s.members, m)
			s.legs = append(s.legs, addr)
			s.stops = append(s.stops, stop)
			addrs[i] = []string{addr}
		}
		r, err := dist.NewRouter(addrs, dist.Options{})
		if err != nil {
			return fail(err)
		}
		s.router, s.retr = r, r
	}
	s.setCaches(true)
	if err := load(s.retr, docs, sc); err != nil {
		return fail(err)
	}
	if topo == topoPersistent {
		if _, err := s.store.Checkpoint(); err != nil {
			return fail(err)
		}
	}
	if err := s.serve(); err != nil {
		return fail(err)
	}
	if err := s.probe(docs); err != nil {
		return fail(err)
	}
	return s, time.Since(start), nil
}

// serve exposes s.retr on an ephemeral loopback port.
func (s *system) serve() error {
	addr, stop, err := core.Serve(s.retr, "127.0.0.1:0", "")
	if err != nil {
		return err
	}
	s.addr = addr
	s.stops = append(s.stops, stop)
	return nil
}

// probe asks the served system one query a fresh client must get an
// answer to: the first annotated document's leading words.
func (s *system) probe(docs []doc) error {
	c, err := core.DialMirror(s.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := range docs {
		if w := docs[i].words; len(w) >= 2 {
			hits, err := c.TextQuery(w[0]+" "+w[1], 1, false)
			if err != nil {
				return err
			}
			if len(hits) == 0 {
				return fmt.Errorf("probe query %q returned no hit", w[0]+" "+w[1])
			}
			return nil
		}
	}
	return fmt.Errorf("corpus has no annotated document")
}

// timedSetup sets the system up sc.SetupReps times — fresh stores and
// listeners each time — and keeps the last one for the run. It returns
// the median of the set-up times.
func timedSetup(topo topology, docs []doc, sc scale, outDir string) (*system, float64, error) {
	var s *system
	times := make([]float64, 0, sc.SetupReps)
	for rep := 0; rep < sc.SetupReps; rep++ {
		if s != nil {
			s.close()
		}
		dir := ""
		if topo == topoPersistent {
			var err error
			if dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
				return nil, 0, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = setup(topo, docs, sc, dir); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
	}
	sort.Float64s(times)
	return s, quantile(times, 0.5), nil
}
