// The Cluster type: one node's view of a static multi-node membership.
// It owns the routing table (the ring), the resilient peer clients, the
// recompute epoch, and the node-local half of the two-phase recompute.
// The serve layer calls into it from the public fleet handlers — the
// cluster is a routing and gathering layer over the ordinary fleet
// registry, never a second store.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/acterr"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/reqid"
	"act/internal/resilience"
)

// EpochHeader carries a node's recompute epoch on snapshot-ship
// responses, so a replacement node adopts the shipped state's epoch and
// folds with the rest of the membership immediately.
const EpochHeader = "X-Act-Epoch"

// Config assembles a Cluster.
type Config struct {
	// Self is this node's base URL; it must appear in Peers.
	Self string
	// Peers is the full static membership, this node included.
	Peers []string
	// Vnodes is the ring replication factor (0 = DefaultVnodes).
	Vnodes int
	// Registry is the node's fleet registry (required).
	Registry *fleet.Registry
	// Client performs inter-node HTTP (nil = a dedicated client).
	Client *http.Client
	// RetryAttempts is the total attempts per inter-node RPC (0 = 3).
	RetryAttempts int
	// BreakerThreshold trips a peer's breaker after that many consecutive
	// failures (0 = 5, negative disables per-peer breakers).
	BreakerThreshold int
	// BreakerOpenFor holds a tripped peer breaker open (0 = 5s).
	BreakerOpenFor time.Duration
	// OnPeerBreakerChange observes per-peer breaker transitions (metrics).
	OnPeerBreakerChange func(peer string, from, to resilience.State)
	// Logf receives cluster diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// Cluster is one member's routing and scatter-gather engine.
type Cluster struct {
	reg     *fleet.Registry
	self    string
	ring    *Ring
	members []string      // sorted, self included
	peers   []*peerClient // the members but self, in member order
	hc      *http.Client
	logf    func(string, ...any)

	// epoch counts recompute commits this node has installed. Partials
	// carry it; a fold refuses to mix epochs.
	epoch atomic.Uint64

	// The prepared-but-uncommitted recompute, if any.
	pmu          sync.Mutex
	pending      *fleet.StagedRecompute
	pendingEpoch uint64
}

// New validates the membership and builds the member's cluster engine.
func New(cfg Config) (*Cluster, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: config needs a fleet registry")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: config needs at least one peer (the node itself)")
	}
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, err
	}
	members := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		n, err := normalizeURL(p)
		if err != nil {
			return nil, err
		}
		members = append(members, n)
	}
	sort.Strings(members)
	if !slices.Contains(members, self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", self)
	}
	ring, err := NewRing(members, cfg.Vnodes)
	if err != nil {
		return nil, err
	}

	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	attempts := cfg.RetryAttempts
	if attempts == 0 {
		attempts = 3
	}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = 5
	}
	openFor := cfg.BreakerOpenFor
	if openFor == 0 {
		openFor = 5 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	c := &Cluster{
		reg:     cfg.Registry,
		self:    self,
		ring:    ring,
		members: members,
		hc:      hc,
		logf:    logf,
	}
	for _, m := range members {
		if m == self {
			continue
		}
		p := &peerClient{
			base:  m,
			hc:    hc,
			retry: resilience.RetryPolicy{MaxAttempts: attempts},
		}
		if threshold > 0 {
			p.brk = resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: threshold,
				OpenFor:          openFor,
				OnStateChange: func(from, to resilience.State) {
					logf("cluster: peer %s breaker %s -> %s", m, from, to)
					if cfg.OnPeerBreakerChange != nil {
						cfg.OnPeerBreakerChange(m, from, to)
					}
				},
			})
		}
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// peer returns the client of a remote member.
func (c *Cluster) peer(name string) (*peerClient, error) {
	for _, p := range c.peers {
		if p.base == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("cluster: no peer client for owner %s", name)
}

// Self returns this node's normalized base URL.
func (c *Cluster) Self() string { return c.self }

// Members returns the sorted membership, self included.
func (c *Cluster) Members() []string { return append([]string(nil), c.members...) }

// Registry returns the node's fleet registry.
func (c *Cluster) Registry() *fleet.Registry { return c.reg }

// Epoch returns the node's committed recompute epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Ring returns the routing ring (tests, diagnostics).
func (c *Cluster) Ring() *Ring { return c.ring }

// OwnerOf returns the member that owns a device id: the shard-grain
// placement FNV-64a(id) mod shards, then the ring.
func (c *Cluster) OwnerOf(id string) string {
	return c.ring.OwnerShard(fleet.ShardIndex(id, c.reg.ShardCount()))
}

// IsLocal reports whether this node owns the device id.
func (c *Cluster) IsLocal(id string) bool { return c.OwnerOf(id) == c.self }

// LocalPartial assembles this node's contribution to a scatter-gather
// query: every owned shard's verbatim running totals, the local BoM hash
// set, and the local top-K list when topK > 0. groupBy names the one
// group dimension the fold will read ("" for none) — the partial ships
// only that dimension's slots, so a plain summary's scatter payload is
// sized by the shard count, not by shards times distinct group keys.
func (c *Cluster) LocalPartial(topK int, groupBy string) Partial {
	p := Partial{
		Node:        c.self,
		ShardsTotal: c.reg.ShardCount(),
		Epoch:       c.epoch.Load(),
		Devices:     int64(c.reg.Len()),
		Shards:      c.reg.ShardAggregates(groupBy),
		BoMHashes:   c.reg.BoMKeyHashes(),
	}
	if topK > 0 {
		p.Top = c.reg.TopK(topK)
	}
	return p
}

// GatherPartials scatter-gathers every member's partial: the local one
// directly, the rest over the peer clients in parallel. Unreachable
// members land in missing (sorted) rather than failing the gather — the
// caller decides whether a partial answer is acceptable. err is always
// nil at present.
func (c *Cluster) GatherPartials(ctx context.Context, topK int, groupBy string) (partials []Partial, missing []string, err error) {
	partials = append(partials, c.LocalPartial(topK, groupBy))
	got, errs := fetchPartials(ctx, c.peers, topK, groupBy)
	for i, err := range errs {
		if err != nil {
			c.logf("cluster: gather from %s: %v", c.peers[i].base, err)
			missing = append(missing, c.peers[i].base)
			continue
		}
		partials = append(partials, got[i])
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Node < partials[j].Node })
	return partials, missing, nil
}

// fanOut calls fn once per item, each on its own goroutine, and returns
// the results and errors in item order. A failing leg never cancels the
// others: a gather tolerates missing members, and a recompute wave or an
// ingest scatter needs every member's answer.
func fanOut[T, R any](items []T, fn func(T) (R, error)) ([]R, []error) {
	vals, errs := make([]R, len(items)), make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = fn(it)
		}()
	}
	wg.Wait()
	return vals, errs
}

// Summary answers a fleet query by scatter-gather and fold. missing
// lists members that did not answer; when non-empty the document folds
// only the reachable nodes' shards and the caller should answer with the
// partial envelope code. A gather that lands mid-recompute (mixed
// epochs) is retried once; a persistent mix is an error.
func (c *Cluster) Summary(ctx context.Context, q fleet.Query) (doc report.FleetSummaryJSON, missing []string, err error) {
	if err := q.Validate(); err != nil {
		return report.FleetSummaryJSON{}, nil, err
	}
	partials, missing, err := c.GatherPartials(ctx, q.TopK, q.GroupBy)
	if err != nil {
		return report.FleetSummaryJSON{}, nil, err
	}
	doc, err = Fold(q, partials)
	if err != nil && errors.Is(err, ErrEpochMixed) {
		// A commit wave is in flight; one regather usually lands wholly on
		// the new epoch.
		partials, missing, err = c.GatherPartials(ctx, q.TopK, q.GroupBy)
		if err != nil {
			return report.FleetSummaryJSON{}, nil, err
		}
		doc, err = Fold(q, partials)
	}
	if err != nil {
		return report.FleetSummaryJSON{}, nil, err
	}
	return doc, missing, nil
}

// ProxyDelete forwards a device removal to its owning member. An owner's
// refusal (a 404, say) comes back as its *MemberError. The forwarded-hop
// header stops a second hop: if the owner disagrees about ownership it
// answers 409 rather than forwarding again.
func (c *Cluster) ProxyDelete(ctx context.Context, owner, id string) error {
	p, err := c.peer(owner)
	if err != nil {
		return err
	}
	res, err := p.call(ctx, http.MethodDelete, "/v1/fleet/devices/"+url.PathEscape(id), "", "", nil, true)
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return memberError(p.base, res)
	}
	return nil
}

// SeedFrom replaces this node's registry state with a snapshot shipped
// from base (any live member, or the outgoing node being replaced): one
// GET of the enveloped snapshot, a Restore, and — when the shipped state
// was priced under different model tables than this binary carries — a
// recompute. The node adopts the shipped recompute epoch so its partials
// fold with the rest of the membership immediately.
func (c *Cluster) SeedFrom(ctx context.Context, base string) error {
	base, err := normalizeURL(base)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathSnapshot, nil)
	if err != nil {
		return err
	}
	reqid.Forward(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return acterr.Transient(fmt.Errorf("cluster: seed from %s: %w", base, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: seed from %s: snapshot answered %d", base, resp.StatusCode)
	}
	_, stale, err := c.reg.ReadShip(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: seed from %s: %w", base, err)
	}
	if e := resp.Header.Get(EpochHeader); e != "" {
		n, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return fmt.Errorf("cluster: seed from %s: bad %s header %q", base, EpochHeader, e)
		}
		c.epoch.Store(n)
	}
	if stale {
		c.logf("cluster: seeded state is stale against this binary's tables; recomputing")
		if err := c.reg.Recompute(ctx); err != nil {
			return fmt.Errorf("cluster: seed recompute: %w", err)
		}
	}
	c.logf("cluster: seeded %d devices from %s", c.reg.Len(), base)
	return nil
}
