package load

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mirror/internal/core"
	"mirror/internal/mediaserver"
)

// distCluster supervises a full distributed topology as child mirrord
// processes: one WAL-shipping primary per shard over a persistent store,
// Replicas-1 followers each replaying the shipped stream into their own
// stores, and the shard router fronting them all — every boundary a real
// net/rpc connection, every member individually SIGKILL-able.
type distCluster struct {
	Router     *Daemon
	Primaries  []*Daemon   // one per shard
	Followers  [][]*Daemon // [shard][replica-1]
	RouterAddr string

	primAddr  []string
	primStore []string
	folAddr   [][]string
	folStore  [][]string
}

// startDistCluster boots the members (primaries first, then followers —
// a follower dials its primary's fixed address), waits for every member
// to serve, then starts the router, which discovers the layout from the
// dictionary, crawls the media server and publishes the first epoch.
func startDistCluster(o Options, dictAddr, base string) (*distCluster, error) {
	cl := &distCluster{}
	boot := func(d *Daemon) error {
		if err := d.Start(); err != nil {
			cl.KillAll()
			return err
		}
		return nil
	}
	for i := 0; i < o.Shards; i++ {
		addr, err := freeAddr()
		if err != nil {
			cl.KillAll()
			return nil, err
		}
		join := fmt.Sprintf("%d/%d", i, o.Shards)
		store := filepath.Join(o.StoreDir, fmt.Sprintf("shard-%d", i))
		p := &Daemon{Bin: o.Bin, Addr: addr, Args: []string{
			"-dict", dictAddr, "-addr", addr, "-join", join,
			"-store", store, "-wal-sync", "-checkpoint-every", "0",
		}}
		if err := boot(p); err != nil {
			return nil, err
		}
		cl.Primaries = append(cl.Primaries, p)
		cl.primAddr = append(cl.primAddr, addr)
		cl.primStore = append(cl.primStore, store)

		var fols []*Daemon
		var faddrs, fstores []string
		for f := 1; f < o.Replicas; f++ {
			faddr, err := freeAddr()
			if err != nil {
				cl.KillAll()
				return nil, err
			}
			fstore := filepath.Join(o.StoreDir, fmt.Sprintf("shard-%d-follower-%d", i, f))
			fd := &Daemon{Bin: o.Bin, Addr: faddr, Args: []string{
				"-dict", dictAddr, "-addr", faddr, "-join", join,
				"-follow", addr, "-name", fmt.Sprintf("f%d", f),
				"-store", fstore, "-wal-sync", "-checkpoint-every", "0",
			}}
			if err := boot(fd); err != nil {
				return nil, err
			}
			fols = append(fols, fd)
			faddrs = append(faddrs, faddr)
			fstores = append(fstores, fstore)
		}
		cl.Followers = append(cl.Followers, fols)
		cl.folAddr = append(cl.folAddr, faddrs)
		cl.folStore = append(cl.folStore, fstores)
	}
	for _, d := range cl.members() {
		if err := d.WaitServing(time.Minute); err != nil {
			cl.KillAll()
			return nil, err
		}
	}

	raddr, err := freeAddr()
	if err != nil {
		cl.KillAll()
		return nil, err
	}
	cl.RouterAddr = raddr
	cl.Router = &Daemon{Bin: o.Bin, Addr: raddr, Args: []string{
		"-dict", dictAddr, "-media", base, "-addr", raddr,
		"-replicas", strconv.Itoa(o.Replicas), "-refresh-every", "0",
	}}
	if err := boot(cl.Router); err != nil {
		return nil, err
	}
	if err := cl.Router.WaitReady(2 * time.Minute); err != nil {
		cl.KillAll()
		return nil, err
	}
	return cl, nil
}

// members lists every shard daemon, primaries first.
func (cl *distCluster) members() []*Daemon {
	out := append([]*Daemon{}, cl.Primaries...)
	for _, fols := range cl.Followers {
		out = append(out, fols...)
	}
	return out
}

// KillAll SIGKILLs everything, router first. Safe on a half-built
// cluster and after StopAll (Kill on a stopped daemon is a no-op).
func (cl *distCluster) KillAll() {
	if cl.Router != nil {
		cl.Router.Kill()
	}
	for _, d := range cl.members() {
		d.Kill()
	}
}

// StopAll shuts the topology down gracefully: the router first (no new
// fan-outs), then followers, then primaries (each takes its final
// checkpoint on SIGINT).
func (cl *distCluster) StopAll(timeout time.Duration) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	note(cl.Router.Stop(timeout))
	for _, fols := range cl.Followers {
		for _, d := range fols {
			note(d.Stop(timeout))
		}
	}
	for _, d := range cl.Primaries {
		note(d.Stop(timeout))
	}
	return firstErr
}

// awaitReplication blocks until every follower serves exactly its
// primary's published epoch — same tag, coverage and size — which is the
// precondition for a router failover to be invisible to readers.
func (cl *distCluster) awaitReplication(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := range cl.Primaries {
		for f, faddr := range cl.folAddr[i] {
			for {
				err := replicaLag(cl.primAddr[i], faddr)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("load: shard %d follower %d never caught up: %w", i, f, err)
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}
	return nil
}

// replicaLag compares a primary's shard state against one follower's,
// returning a descriptive error while they differ.
func replicaLag(primAddr, folAddr string) error {
	pc, err := core.DialMirrorTimeout(primAddr, 5*time.Second)
	if err != nil {
		return err
	}
	pst, err := pc.ShardState()
	pc.Close()
	if err != nil {
		return err
	}
	fc, err := core.DialMirrorTimeout(folAddr, 5*time.Second)
	if err != nil {
		return err
	}
	fst, err := fc.ShardState()
	fc.Close()
	if err != nil {
		return err
	}
	if !fst.Follower {
		return fmt.Errorf("replica at %s is not a follower", folAddr)
	}
	// Tag + coverage are the replication contract (the router pins reads
	// by publish tag); the local epoch sequence is a per-process counter
	// that legitimately differs across a member restart.
	if fst.Size != pst.Size || fst.Covered != pst.Covered ||
		fst.Tag != pst.Tag || fst.Docs != pst.Docs {
		return fmt.Errorf("primary %+v vs follower %+v", pst, fst)
	}
	return nil
}

// InjectDist executes one distributed-matrix fault against a running
// cluster and brings the victim back: provoke the interesting moment
// through the router, SIGKILL the victim member, (for the torn-WAL
// fault) perform the surgery, restart, and wait until it serves again.
// queryText feeds the in-flight query of FaultKillShardDuringQuery.
func InjectDist(cl *distCluster, f Fault, queryText string) (*FaultReport, error) {
	rep := &FaultReport{Fault: f}
	switch f {
	case FaultKillShardDuringQuery:
		fireAsync(cl.RouterAddr, func(c *core.Client) { c.Run(core.Query{Stmt: core.StmtAnnotation, Text: queryText, K: 5}) })
		return rep, cl.bounce(cl.Primaries[0], "", rep)
	case FaultKillShardDuringRefresh:
		fireAsync(cl.RouterAddr, func(c *core.Client) { c.Refresh() })
		return rep, cl.bounce(cl.Primaries[0], "", rep)
	case FaultKillShardDuringCheckpoint:
		fireAsync(cl.RouterAddr, func(c *core.Client) { c.Checkpoint() })
		return rep, cl.bounce(cl.Primaries[0], "", rep)
	case FaultTornFollowerWAL:
		if len(cl.Followers) == 0 || len(cl.Followers[0]) == 0 {
			return nil, fmt.Errorf("load: %s needs at least one follower", f)
		}
		return rep, cl.bounce(cl.Followers[0][0], cl.folStore[0][0], rep)
	default:
		return nil, fmt.Errorf("load: unknown distributed fault %q", f)
	}
}

// bounce SIGKILLs one member, optionally tears its WAL, restarts it and
// waits for its RPC surface (members rejoin unpublished; the router's
// next touch brings them back into rounds).
func (cl *distCluster) bounce(d *Daemon, tearStore string, rep *FaultReport) error {
	mark := len(d.Output())
	start := time.Now()
	if err := d.Kill(); err != nil {
		return err
	}
	if tearStore != "" {
		torn, err := TearWAL(tearStore)
		if err != nil {
			return err
		}
		rep.WALTorn = torn
	}
	if err := d.Start(); err != nil {
		return err
	}
	if err := d.WaitServing(60 * time.Second); err != nil {
		return fmt.Errorf("load: recovery after %s: %w", rep.Fault, err)
	}
	rep.Downtime = time.Since(start)
	rep.TornTailSeen = strings.Contains(d.Output()[mark:], "truncated a torn WAL tail")
	return nil
}

// runDistributed is Run's distributed topology body: same scenario, same
// closed-loop workers, same oracle — but the store under test is a
// router over networked, replicated shard daemons, and the faults kill
// individual cluster members instead of the single process.
func runDistributed(o Options, sc *Scenario, oracle *core.Oracle, media *mediaserver.Server, dictAddr string) (*TopologyReport, error) {
	o.Logf("load[%s]: starting %d-shard x%d-replica cluster (%d preloaded docs)",
		o.Topology, o.Shards, o.Replicas, sc.Spec.Preload)
	cl, err := startDistCluster(o, dictAddr, sc.BaseURL)
	if err != nil {
		return nil, err
	}
	defer cl.KillAll() // no-op after a clean StopAll

	met := newMetrics()
	stop, wg := startWorkers(o, sc, media, oracle, cl.RouterAddr, met)

	faults, err := faultWindow(o, stop, wg, func(f Fault) (*FaultReport, error) {
		return InjectDist(cl, f, sc.Queries[0].Text)
	})
	if err != nil {
		return nil, err
	}

	st, err := quiesce(o, sc, oracle, cl.RouterAddr, met)
	if err != nil {
		return nil, err
	}
	if err := cl.StopAll(30 * time.Second); err != nil {
		return nil, fmt.Errorf("load: shutdown: %w", err)
	}
	return buildReport(o, met, faults, st)
}
