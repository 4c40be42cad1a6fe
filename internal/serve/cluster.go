// Cluster mode. EnableCluster attaches a cluster.Cluster to the server,
// after which the public fleet routes behave cluster-wide: ingest
// scatters to owners, summaries scatter-gather-and-fold, deletes proxy
// to the owner, and recompute runs the two-phase protocol across the
// membership. The private /v1/cluster/* routes are the inter-node
// surface — always registered, answering 404 until cluster mode is on.
//
// Partial quorum: when some members are unreachable, a summary still
// answers — HTTP 206 with the closed envelope code "partial" riding
// next to the reachable-node fold — so operators keep visibility into
// the surviving fleet during an outage instead of getting nothing.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/reqid"
	"act/internal/resilience"
)

// ClusterConfig is the actd-facing cluster configuration (cmd/actd
// flags; the registry and metrics are wired from the server itself).
// The retry and breaker settings guard the peer client only: a peer call
// crosses a network, so its faults can pass on a second try.
type ClusterConfig struct {
	// Self is this node's base URL as the membership names it.
	Self string
	// Peers is the full static membership, self included.
	Peers []string
	// Vnodes is the consistent-hash replication factor (0 = default).
	Vnodes int
	// RetryAttempts is the total attempts per peer RPC (0 = 3).
	RetryAttempts int
	// BreakerThreshold trips a peer's breaker after that many consecutive
	// failed calls (0 = 5, negative disables the peer breakers).
	BreakerThreshold int
	// BreakerOpenFor holds a tripped peer breaker open (0 = 5s).
	BreakerOpenFor time.Duration
}

// EnableCluster switches the server into cluster mode. Call it before
// serving traffic (cmd/actd does, and the conformance harness enables it
// before the first request).
func (s *Server) EnableCluster(cc ClusterConfig) error {
	c, err := cluster.New(cluster.Config{
		Self:             cc.Self,
		Peers:            cc.Peers,
		Vnodes:           cc.Vnodes,
		Registry:         s.fleet,
		RetryAttempts:    cc.RetryAttempts,
		BreakerThreshold: cc.BreakerThreshold,
		BreakerOpenFor:   cc.BreakerOpenFor,
		OnPeerBreakerChange: func(peer string, from, to resilience.State) {
			s.mClusterPeerState.With(peer).Store(int64(to))
			s.log.Warn("cluster peer breaker state change",
				"peer", peer, "from", from.String(), "to", to.String())
		},
		Logf: func(format string, args ...any) {
			s.log.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	for _, m := range c.Members() {
		if m != c.Self() {
			s.mClusterPeerState.With(m).Store(int64(resilience.Closed))
		}
	}
	s.cluster.Store(c)
	s.log.Info("cluster mode enabled",
		"self", c.Self(), "members", len(c.Members()), "vnodes", c.Ring().Vnodes())
	return nil
}

// Cluster returns the attached cluster engine, nil in single-node mode.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster.Load() }

// forwarded reports whether r is a routed member-to-member hop; such
// requests must be handled locally, never re-forwarded.
func forwarded(r *http.Request) bool { return r.Header.Get(cluster.ForwardedHeader) != "" }

// clusterFor returns the cluster engine when this request should take
// the cluster path: cluster mode on and not already a forwarded hop.
func (s *Server) clusterFor(r *http.Request) *cluster.Cluster {
	c := s.cluster.Load()
	if c == nil || forwarded(r) {
		return nil
	}
	return c
}

// partialSummaryResponse is the 206 body: the error envelope naming the
// unreachable members next to the reachable-node fold.
type partialSummaryResponse struct {
	Error   errorDetail             `json:"error"`
	Summary report.FleetSummaryJSON `json:"summary"`
}

// writePartialSummary answers a degraded scatter-gather.
func (s *Server) writePartialSummary(w http.ResponseWriter, r *http.Request, doc report.FleetSummaryJSON, missing []string) {
	s.mClusterScatter.With("partial").Add(1)
	writeJSON(w, http.StatusPartialContent, partialSummaryResponse{
		Error: errorDetail{
			Code:      codePartial,
			Message:   fmt.Sprintf("summary folded without %d unreachable member(s): %v", len(missing), missing),
			RequestID: reqid.From(r.Context()),
		},
		Summary: doc,
	})
}

// handleClusterPartial serves this node's scatter-gather contribution:
// GET /v1/cluster/partial?top=K&by=DIM. The partial carries only the
// group dimension named by `by` — the fold reads exactly one, so the
// coordinator asks for exactly one.
func (s *Server) handleClusterPartial(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster.Load()
	if c == nil {
		return errClusterOff
	}
	topK := 0
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return newAPIError(http.StatusBadRequest, codeInvalidArgument, "top", fmt.Sprintf("cannot parse top-K %q", v))
		}
		topK = n
	}
	groupBy := r.URL.Query().Get("by")
	if err := (fleet.Query{GroupBy: groupBy}).Validate(); err != nil {
		return newAPIError(http.StatusBadRequest, codeInvalidArgument, "by", fmt.Sprintf("unknown group dimension %q", groupBy))
	}
	writeJSON(w, http.StatusOK, c.LocalPartial(topK, groupBy))
	return nil
}

// handleClusterSnapshot ships this node's full fleet state inside the
// durable-store envelope — the node-replacement transfer. With a store
// mounted it checkpoints first so the shipped WAL floor is honest.
func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster.Load()
	if c == nil {
		return errClusterOff
	}
	var floor uint64
	if st := s.fleetStore.Load(); st != nil {
		if err := s.CheckpointFleet(); err != nil {
			return err
		}
		floor = st.Floor()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(cluster.EpochHeader, strconv.FormatUint(c.Epoch(), 10))
	if err := s.fleet.WriteShip(w, floor); err != nil {
		// The status line is committed; all we can do is count and log.
		s.mEncodeErrors.Inc()
		s.log.Warn("cluster snapshot ship failed mid-stream",
			"request_id", reqid.From(r.Context()), "error", err)
	}
	return nil
}

// clusterControl runs one prepare/commit/abort step on this member: it
// decodes the control message from the bounded body and answers
// {"<done>": epoch} when step succeeds.
func (s *Server) clusterControl(w http.ResponseWriter, r *http.Request, done string,
	step func(c *cluster.Cluster, epoch, fingerprint uint64) error) error {
	c := s.cluster.Load()
	if c == nil {
		return errClusterOff
	}
	var msg struct {
		Epoch       uint64 `json:"epoch"`
		Fingerprint uint64 `json:"fingerprint"`
	}
	if err := json.NewDecoder(s.body(w, r)).Decode(&msg); err != nil {
		return badRequest(err)
	}
	if err := step(c, msg.Epoch, msg.Fingerprint); err != nil {
		return onClusterPath(err)
	}
	writeJSON(w, http.StatusOK, map[string]any{done: msg.Epoch})
	return nil
}

// handleClusterPrepare stages a repricing: phase one of the two-phase
// recompute.
func (s *Server) handleClusterPrepare(w http.ResponseWriter, r *http.Request) error {
	return s.clusterControl(w, r, "prepared", func(c *cluster.Cluster, epoch, fp uint64) error {
		return c.PrepareLocal(r.Context(), epoch, fp)
	})
}

// handleClusterCommit installs a staged repricing: phase two.
func (s *Server) handleClusterCommit(w http.ResponseWriter, r *http.Request) error {
	return s.clusterControl(w, r, "committed", func(c *cluster.Cluster, epoch, _ uint64) error {
		return c.CommitLocal(r.Context(), epoch)
	})
}

// handleClusterAbort discards a staged repricing.
func (s *Server) handleClusterAbort(w http.ResponseWriter, r *http.Request) error {
	return s.clusterControl(w, r, "aborted", func(c *cluster.Cluster, epoch, _ uint64) error {
		c.AbortLocal(epoch)
		return nil
	})
}

// clusterSummary runs the scatter-gather-fold path for the public
// summary route (and the recompute route's response document).
func (s *Server) clusterSummary(w http.ResponseWriter, r *http.Request, c *cluster.Cluster, q fleet.Query) error {
	doc, missing, err := c.Summary(r.Context(), q)
	if err != nil {
		s.mClusterScatter.With("error").Add(1)
		return onClusterPath(err)
	}
	if len(missing) > 0 {
		s.writePartialSummary(w, r, doc, missing)
		return nil
	}
	s.mClusterScatter.With("full").Add(1)
	w.Header().Set("Content-Type", "application/json")
	s.encodeBody(w, r, doc)
	return nil
}
