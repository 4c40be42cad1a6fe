// The /v1/fleet API: streaming NDJSON ingest into the fleet registry,
// O(shards) summaries, device removal, and model-table recomputation —
// plus the snapshot/write-ahead-log persistence glue actd uses across
// restarts. Summary responses are written through report.Encode, the same
// encoder `act fleet` uses, so the service body and the CLI output are
// byte-identical.

package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/reqid"
	"act/internal/vfs"
)

// Fleet exposes the server's fleet registry (tests and cmd/actd).
func (s *Server) Fleet() *fleet.Registry { return s.fleet }

// handleFleetIngest streams NDJSON device objects into the registry.
// Ingest is incremental: records apply in order and stay applied when a
// later record fails, and the error names the failing record's index.
// Outcome counts land in actd_fleet_ingest_total{code}: created, replaced,
// invalid (a 4xx the client can fix), error (an internal fault).
func (s *Server) handleFleetIngest(w http.ResponseWriter, r *http.Request) error {
	var (
		res fleet.IngestResult
		err error
	)
	if c := s.clusterFor(r); c != nil {
		// Cluster coordinator: decode here, scatter each record to its
		// owning member (this node included). Forwarded hops fall through
		// to the local path below — a member never re-forwards.
		res, err = c.Ingest(r.Context(), s.body(w, r), s.cfg.MaxBatch)
		err = onClusterPath(err)
	} else {
		res, err = s.fleet.IngestNDJSON(s.body(w, r), s.cfg.MaxBatch)
	}
	if created := res.Upserted - res.Replaced; created > 0 {
		s.mFleetIngest.With("created").Add(uint64(created))
	}
	if res.Replaced > 0 {
		s.mFleetIngest.With("replaced").Add(uint64(res.Replaced))
	}
	if err != nil {
		outcome := "error"
		if status, _ := classify(err); status < http.StatusInternalServerError {
			outcome = "invalid"
		}
		s.mFleetIngest.With(outcome).Add(1)
		return err
	}
	writeJSON(w, http.StatusOK, res)
	return nil
}

// handleFleetSummary answers the aggregate fleet document. Optional query
// parameters: top=K adds the K largest per-device emitters, by=region|node|class
// adds per-group rows.
func (s *Server) handleFleetSummary(w http.ResponseWriter, r *http.Request) error {
	q, err := bindFleetQuery(r.URL.Query())
	if err != nil {
		return err
	}
	if c := s.clusterFor(r); c != nil {
		return s.clusterSummary(w, r, c, q)
	}
	doc, err := s.fleet.Query(q)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	s.encodeBody(w, r, doc)
	return nil
}

// handleFleetDelete unregisters one device by id; 404 when absent.
func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if c := s.cluster.Load(); c != nil && !c.IsLocal(id) {
		if forwarded(r) {
			// The sender thought we own this device; we disagree. A second
			// hop could loop forever, so answer conflict instead.
			return onClusterPath(cluster.ErrNotOwner)
		}
		// An owner's refusal comes back as its envelope, which writeError
		// writes unchanged. The forwarded request carried our X-Request-Id,
		// so the relayed request_id matches ours.
		if err := c.ProxyDelete(r.Context(), c.OwnerOf(id), id); err != nil {
			return onClusterPath(err)
		}
	} else {
		found, err := s.fleet.Remove(id)
		if err != nil {
			return err
		}
		if !found {
			return newAPIError(http.StatusNotFound, codeNotFound, "", fmt.Sprintf("no device %q", id))
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": id})
	return nil
}

// handleFleetRecompute re-evaluates every registered BoM against the
// current model tables and answers with the fresh summary. Latency lands
// in actd_fleet_recompute_seconds.
func (s *Server) handleFleetRecompute(w http.ResponseWriter, r *http.Request) error {
	if c := s.clusterFor(r); c != nil {
		// Two-phase coordinator: prepare on every member, then commit, then
		// answer the cluster-wide summary.
		start := time.Now()
		err := c.Recompute(r.Context())
		s.mFleetRecompute.Observe(time.Since(start).Seconds())
		if err != nil {
			return onClusterPath(err)
		}
		return s.clusterSummary(w, r, c, fleet.Query{})
	}
	if err := s.recomputeFleet(r.Context()); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	s.encodeBody(w, r, s.fleet.Summary())
	return nil
}

// encodeBody writes a canonical result document onto a response whose
// status line is already committed (implicitly 200 on first write). A
// failure here cannot change the status anymore — it means the client went
// away or the connection broke mid-body — so it is logged and counted
// (actd_response_encode_errors_total) rather than discarded.
func (s *Server) encodeBody(w http.ResponseWriter, r *http.Request, doc any) {
	if err := report.Encode(w, doc); err != nil {
		s.mEncodeErrors.Inc()
		s.log.Warn("response body encode failed",
			"path", r.URL.Path,
			"request_id", reqid.From(r.Context()),
			"error", err)
	}
}

// recomputeFleet runs one observed recomputation.
func (s *Server) recomputeFleet(ctx context.Context) error {
	start := time.Now()
	err := s.fleet.Recompute(ctx)
	s.mFleetRecompute.Observe(time.Since(start).Seconds())
	return err
}

// FleetDurability configures the fleet store actd mounts under the
// registry: a snapshot file plus a directory of checksummed write-ahead
// log segments. The zero value (both paths empty) keeps the fleet purely
// in-memory.
type FleetDurability struct {
	// SnapshotPath is the checkpoint file ("" with WALDir also "" =
	// in-memory fleet).
	SnapshotPath string
	// WALDir is the segment directory. A regular file at this path fails
	// to open.
	WALDir string
	// SegmentBytes rotates the active segment past this size (0 = the
	// store default).
	SegmentBytes int64
	// CompactInterval runs background checkpoints (and degraded-mode
	// probes) this often; 0 disables the compactor — checkpoints then
	// happen only on shutdown or via CheckpointFleet.
	CompactInterval time.Duration
	// FS overrides the filesystem (tests inject vfs.MemFS; nil = the
	// real disk).
	FS vfs.FS
}

// OpenFleet mounts durable storage under the fleet registry: restore the
// snapshot, replay the write-ahead log segments (quarantining corrupt
// ones), attach the appender, and — when the snapshot was written against
// different model tables than this binary carries — recompute. With
// CompactInterval set it also starts the background compactor.
func (s *Server) OpenFleet(ctx context.Context, d FleetDurability) error {
	if d.SnapshotPath == "" && d.WALDir == "" {
		return nil
	}
	if d.SnapshotPath == "" || d.WALDir == "" {
		return errors.New("fleet durability needs both a snapshot path and a WAL directory")
	}
	st, err := fleet.OpenStore(ctx, s.fleet, fleet.StoreConfig{
		FS:           d.FS,
		SnapshotPath: d.SnapshotPath,
		WALDir:       d.WALDir,
		SegmentBytes: d.SegmentBytes,
		Logf: func(format string, args ...any) {
			s.log.Warn("fleet store: " + fmt.Sprintf(format, args...))
		},
		OnQuarantine: func(name, reason string) {
			s.log.Error("fleet wal segment quarantined", "segment", name, "reason", reason)
		},
	})
	if err != nil {
		return err
	}
	s.fleetStore.Store(st)
	s.log.Info("fleet store opened",
		"snapshot", d.SnapshotPath, "wal_dir", d.WALDir,
		"devices", s.fleet.Len(), "wal_segments", st.WALSegments(),
		"quarantined", st.QuarantinedTotal(), "stale", st.Stale())
	if st.Stale() {
		// The WAL is already attached, so the recompute is logged and
		// survives a crash before the next checkpoint.
		if err := s.recomputeFleet(ctx); err != nil {
			s.log.Error("fleet recompute after stale restore", "error", err)
		}
	}
	if d.CompactInterval > 0 {
		s.compactor = startFleetCompactor(s, st, d.CompactInterval)
	}
	return nil
}

// FleetStore exposes the mounted fleet store (nil while in-memory) for
// tests and cmd/actd.
func (s *Server) FleetStore() *fleet.Store { return s.fleetStore.Load() }

// CheckpointFleet folds the write-ahead log into a fresh snapshot and
// drops the covered segments. A no-op without a mounted store.
func (s *Server) CheckpointFleet() error {
	st := s.fleetStore.Load()
	if st == nil {
		return nil
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	s.log.Info("fleet checkpoint saved",
		"devices", s.fleet.Len(), "wal_segments", st.WALSegments())
	return nil
}

// CloseFleet stops the compactor and releases the store (after
// CheckpointFleet on shutdown). A no-op without a mounted store.
func (s *Server) CloseFleet() error {
	if s.compactor != nil {
		s.compactor.stop()
		s.compactor = nil
	}
	st := s.fleetStore.Load()
	if st == nil {
		return nil
	}
	s.fleetStore.Store(nil)
	return st.Close()
}

// fleetCompactor periodically checkpoints the store so the WAL directory
// stays bounded, and — while the store is degraded — probes for recovery
// so a transient full disk or failed fsync heals without a restart.
type fleetCompactor struct {
	stopc chan struct{}
	done  chan struct{}
}

func startFleetCompactor(s *Server, st *fleet.Store, every time.Duration) *fleetCompactor {
	c := &fleetCompactor{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				if down, reason := st.Degraded(); down {
					if err := st.Probe(); err != nil {
						s.log.Warn("fleet persistence still degraded",
							"reason", reason, "probe_error", err.Error())
						continue
					}
					s.log.Info("fleet persistence recovered", "was", reason)
				}
				if err := st.Checkpoint(); err != nil {
					s.log.Error("fleet compaction", "error", err)
				}
			}
		}
	}()
	return c
}

func (c *fleetCompactor) stop() {
	close(c.stopc)
	<-c.done
}
