// Package faultinject is the chaos-testing seam of the serving stack: a
// registry of named injection sites at which tests can make the system
// misbehave — added latency, transient errors, outright panics — without
// touching production code paths.
//
// The package has two builds. Under the `faultinject` build tag
// (`go test -tags faultinject`), Visit consults the registered hooks and
// injects whatever fault the hook returns. In the default build every
// entry point is an inlineable no-op and the hook registry does not exist,
// so production binaries pay nothing for the seam.
//
// Sites are plain strings so new ones cost a constant; the canonical sites
// wired today are the footprint-cache compute path, the parsweep worker
// loop, and the memdb characterization lookups.
package faultinject

import (
	"context"
	"time"
)

// The canonical injection sites. A hook registered for one of these fires
// every time the corresponding code path is visited.
const (
	// SiteCacheCompute fires once per distinct footprint cache miss,
	// before the model evaluation that populates a cache entry.
	SiteCacheCompute = "serve.cache.compute"
	// SitePoolWorker fires in every parsweep worker immediately before it
	// runs an item.
	SitePoolWorker = "parsweep.worker"
	// SiteMemdbLookup fires inside memdb technology resolution (Parse and
	// Embodied), the characterization-database dependency of every DRAM
	// assessment.
	SiteMemdbLookup = "memdb.lookup"
	// SiteFleetShard fires inside a fleet shard's apply section, after a
	// device's contribution is computed but before the registry mutates —
	// a fault here must leave the shard's totals untouched.
	SiteFleetShard = "fleet.shard.apply"
	// SiteFleetSnapshot fires in the fleet snapshot writer before each
	// shard's frame is written, so chaos tests can fail a snapshot
	// mid-stream and assert no torn state survives.
	SiteFleetSnapshot = "fleet.snapshot.write"
	// SiteExportCompress fires in a telemetry compressor worker before a
	// payload is gzipped, so chaos tests can fail or stall compression and
	// assert the queue sheds instead of blocking generators.
	SiteExportCompress = "export.compress"
	// SiteExportSend fires in the exporter's endpoint pool immediately
	// before an HTTP delivery attempt, so chaos tests can fail sends and
	// assert failover, breaker trips and drop accounting.
	SiteExportSend = "export.send"
	// SiteWALRotate fires when the fleet WAL is about to seal the active
	// segment and open its successor, so chaos tests can fail a rotation
	// and assert the store degrades instead of splitting history.
	SiteWALRotate = "fleet.wal.rotate"
	// SiteFleetCompact fires at the start of a fleet store checkpoint
	// (compaction), before the fresh snapshot is written.
	SiteFleetCompact = "fleet.compact"
	// SiteVFSSync fires before every durability barrier — file fsync and
	// directory fsync — in the vfs layer, so chaos tests can fail the
	// exact syscall power-loss safety depends on.
	SiteVFSSync = "vfs.sync"
	// SiteScriptEval fires at the top of every sandboxed script
	// evaluation, before the program runs, so chaos tests can fail or
	// stall untrusted-script evaluation and assert the serving layer
	// answers from the status taxonomy on the first attempt.
	SiteScriptEval = "script.eval"
	// SiteClusterRPC fires in the cluster peer client immediately before
	// each inter-node HTTP attempt (retries revisit it), so chaos tests
	// can fail scatter-gather legs and assert partial-quorum answers,
	// transient-only retries and per-peer breaker trips.
	SiteClusterRPC = "cluster.rpc"
	// SiteClusterFold fires at the top of the cluster summary fold, after
	// the per-node partials are gathered but before they are merged, so
	// chaos tests can fail the fold itself and assert the coordinator
	// answers from the status taxonomy rather than serving a torn
	// document.
	SiteClusterFold = "cluster.fold"
)

// Fault is what a hook asks the site to do, applied in order: sleep for
// Latency (cancellably, when the site has a context), then panic with
// Panic if non-nil, then return Err. The zero Fault is "do nothing".
type Fault struct {
	Latency time.Duration
	Err     error
	Panic   any
}

// Hook decides the fault for one visit of a site. Hooks run on the visiting
// goroutine (often many concurrently) and must be safe for concurrent use;
// deterministic chaos tests give them a seeded, locked PRNG.
type Hook func(site string) Fault

// sleep waits d or until ctx is done, whichever comes first, and reports
// the context's error if it cut the sleep short. It is shared by both
// builds' tests; the no-op build never calls it from Visit.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
