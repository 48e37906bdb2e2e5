package load

import (
	"testing"
	"time"
)

// The full harness, end to end, on both topologies: mixed read/write load
// over a live daemon, two mid-run faults, zero oracle violations, and a
// report with latency quantiles for every operation class.
func TestRunBothTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak smoke; run without -short")
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Docs, spec.Preload, spec.W, spec.H = 32, 20, 16, 16
			spec.Queries, spec.Sessions, spec.Bursts = 8, 3, 2
			rep, err := Run(Options{
				Spec:            spec,
				Bin:             mirrordBin,
				StoreDir:        t.TempDir(),
				Shards:          tc.shards,
				Duration:        2500 * time.Millisecond,
				QueryWorkers:    2,
				FeedbackWorkers: 1,
				K:               8,
				Faults:          []Fault{FaultKillDuringPublish, FaultTornWAL},
				Logf:            t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Faults) != 2 || rep.Restarts != 2 {
				t.Fatalf("faults not injected: %+v", rep.Faults)
			}
			if rep.Oracle.Checked == 0 || rep.Oracle.Violations != 0 {
				t.Fatalf("oracle: %+v", rep.Oracle)
			}
			// Every operation class must have seen traffic and carry
			// sane quantiles.
			for _, op := range []string{"query", "query_dual", "ingest", "feedback", "refresh", "checkpoint"} {
				o, ok := rep.Ops[op]
				if !ok || o.Count == 0 {
					t.Fatalf("op %q saw no successful traffic: %+v", op, rep.Ops)
				}
				if o.P50us > o.P95us || o.P95us > o.P99us || o.P99us > o.MaxUs {
					t.Fatalf("op %q: quantiles not monotone: %+v", op, o)
				}
			}
			if rep.FinalEpoch == 0 || rep.FinalDocs < spec.Preload {
				t.Fatalf("bad final state: %+v", rep)
			}
			// Every ranked query scans block postings: the query traffic
			// above must have decoded blocks, and the counters must survive
			// the Stats RPC hop into the report.
			if rep.BlocksDecoded == 0 {
				t.Fatalf("no blocks decoded in report: %+v", rep)
			}
		})
	}
}

// The full harness over the distributed topology: the same mixed
// workload driven through the shard router, with member kills and a
// follower WAL tear mid-run — zero oracle violations end to end.
func TestRunDistributedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak smoke; run without -short")
	}
	spec := DefaultSpec()
	spec.Docs, spec.Preload, spec.W, spec.H = 32, 20, 16, 16
	spec.Queries, spec.Sessions, spec.Bursts = 8, 3, 2
	rep, err := Run(Options{
		Spec:            spec,
		Bin:             mirrordBin,
		StoreDir:        t.TempDir(),
		Shards:          3,
		Replicas:        2,
		Duration:        2500 * time.Millisecond,
		QueryWorkers:    2,
		FeedbackWorkers: 1,
		K:               8,
		Faults:          []Fault{FaultKillShardDuringRefresh, FaultTornFollowerWAL},
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Topology != "distributed-3x2" {
		t.Fatalf("topology label = %q", rep.Topology)
	}
	if len(rep.Faults) != 2 || rep.Restarts != 2 {
		t.Fatalf("faults not injected: %+v", rep.Faults)
	}
	if rep.Oracle.Checked == 0 || rep.Oracle.Violations != 0 {
		t.Fatalf("oracle: %+v", rep.Oracle)
	}
	// Checkpoint ticks are sparse enough that one can collide with a
	// member's downtime; every other class must have succeeded traffic.
	for _, op := range []string{"query", "query_dual", "ingest", "feedback", "refresh"} {
		o, ok := rep.Ops[op]
		if !ok || o.Count == 0 {
			t.Fatalf("op %q saw no successful traffic: %+v", op, rep.Ops)
		}
		if o.P50us > o.P95us || o.P95us > o.P99us || o.P99us > o.MaxUs {
			t.Fatalf("op %q: quantiles not monotone: %+v", op, o)
		}
	}
	if rep.FinalEpoch == 0 || rep.FinalDocs < spec.Preload {
		t.Fatalf("bad final state: %+v", rep)
	}
	// The router runs no scans itself: a nonzero counter proves the
	// router-side aggregation reached the shard members.
	if rep.BlocksDecoded == 0 {
		t.Fatalf("no blocks decoded in report: %+v", rep)
	}
}
