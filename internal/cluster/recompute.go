// Two-phase cluster recompute. A model-table change (a new binary with
// revised tables) staled every node's embodied figures at once; the
// cluster must reprice everywhere without a summary ever folding shard
// totals priced under different tables. The coordinator (whichever node
// took the /v1/fleet/recompute request) runs prepare/commit:
//
//	prepare: every member verifies it carries the same model-table
//	         fingerprint as the coordinator and stages a full repricing
//	         without touching its live state (fleet.PrepareRecompute).
//	commit:  every member installs its staged state and bumps its
//	         recompute epoch to the coordinator's.
//
// Partials carry the epoch, and the fold refuses to mix epochs — so a
// summary racing the commit wave either sees all-old, all-new, or
// retries. A prepare failure aborts everywhere and leaves every node on
// the old pricing; a commit failure on some member leaves the cluster
// mixed, which folds report as unavailable until the recompute is rerun
// (commits are idempotent, so the rerun heals the stragglers).

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"act/internal/memdb"
)

// Typed prepare/commit refusals; the serve layer answers 409 conflict
// for each.
var (
	// ErrFingerprintMismatch: the coordinator and this node carry
	// different model tables — committing would install inconsistent
	// pricing across the membership.
	ErrFingerprintMismatch = errors.New("cluster: model-table fingerprint mismatch between coordinator and member")
	// ErrStaleEpoch: the proposed epoch is not ahead of the node's
	// committed one (a lagging or duplicate coordinator).
	ErrStaleEpoch = errors.New("cluster: proposed recompute epoch is not ahead of the committed epoch")
	// ErrNoSuchPrepare: commit named an epoch this node never prepared.
	ErrNoSuchPrepare = errors.New("cluster: no staged recompute for that epoch")
)

// recomputeMsg is the prepare/commit/abort wire body.
type recomputeMsg struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
}

// Recompute coordinates a cluster-wide repricing from this node.
func (c *Cluster) Recompute(ctx context.Context) error {
	epoch := c.epoch.Load() + 1
	fp := memdb.Fingerprint()

	if err := c.PrepareLocal(ctx, epoch, fp); err != nil {
		return err
	}
	if err := c.fanRecompute(ctx, PathPrepare, recomputeMsg{Epoch: epoch, Fingerprint: fp}); err != nil {
		// Abort everywhere (best effort) and leave the old pricing live.
		c.AbortLocal(epoch)
		c.fanRecompute(ctx, PathAbort, recomputeMsg{Epoch: epoch})
		return fmt.Errorf("cluster: recompute prepare: %w", err)
	}

	// Every member staged cleanly: commit. Peers first, self last, so the
	// coordinator's own epoch only advances once the fan-out ran; either
	// way a partial commit leaves a mixed cluster that folds refuse until
	// a recompute rerun heals it.
	commitErr := c.fanRecompute(ctx, PathCommit, recomputeMsg{Epoch: epoch})
	if err := c.CommitLocal(ctx, epoch); err != nil {
		commitErr = errors.Join(commitErr, fmt.Errorf("local commit: %w", err))
	}
	if commitErr != nil {
		return fmt.Errorf("cluster: recompute commit (rerun recompute to heal): %w", commitErr)
	}
	return nil
}

// fanRecompute posts one recompute control message to every peer in
// parallel and joins the failures in member order (nil when none).
func (c *Cluster) fanRecompute(ctx context.Context, path string, msg recomputeMsg) error {
	body, _ := json.Marshal(msg)
	_, errs := fanOut(c.peers, func(p *peerClient) (struct{}, error) {
		res, err := p.call(ctx, http.MethodPost, path, "", "application/json", body, false)
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("cluster: peer %s: %s answered %d: %s",
				p.base, path, res.status, compactBody(res.body))
		}
		return struct{}{}, err
	})
	return errors.Join(errs...)
}

// PrepareLocal is the member half of phase one: verify the model-table
// fingerprint, stage a full repricing, and hold it for commit. A newer
// prepare replaces (and aborts) an older staged one.
func (c *Cluster) PrepareLocal(ctx context.Context, epoch, fingerprint uint64) error {
	if fingerprint != memdb.Fingerprint() {
		return ErrFingerprintMismatch
	}
	if epoch <= c.epoch.Load() {
		return fmt.Errorf("%w: proposed %d, committed %d", ErrStaleEpoch, epoch, c.epoch.Load())
	}
	staged, err := c.reg.PrepareRecompute(ctx)
	if err != nil {
		return err
	}
	c.pmu.Lock()
	if c.pending != nil {
		c.pending.Abort()
	}
	c.pending, c.pendingEpoch = staged, epoch
	c.pmu.Unlock()
	return nil
}

// CommitLocal installs the staged repricing for epoch and advances the
// node's committed epoch. Re-committing an already-committed epoch is a
// no-op (commit retries must be idempotent); committing an epoch that
// was never prepared is a conflict.
func (c *Cluster) CommitLocal(ctx context.Context, epoch uint64) error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.pending != nil && c.pendingEpoch == epoch {
		if err := c.pending.Commit(ctx); err != nil {
			// The staged state survives for a retried commit.
			return err
		}
		c.pending = nil
		c.epoch.Store(epoch)
		return nil
	}
	if c.epoch.Load() >= epoch {
		return nil
	}
	return fmt.Errorf("%w: epoch %d", ErrNoSuchPrepare, epoch)
}

// AbortLocal discards the staged repricing for epoch, if it is still the
// one pending. Aborting an unknown epoch is a no-op.
func (c *Cluster) AbortLocal(epoch uint64) {
	c.pmu.Lock()
	if c.pending != nil && c.pendingEpoch == epoch {
		c.pending.Abort()
		c.pending = nil
	}
	c.pmu.Unlock()
}

// IsConflict reports whether err is one of the typed prepare/commit
// refusals (the serve layer's 409 class).
func IsConflict(err error) bool {
	return errors.Is(err, ErrFingerprintMismatch) ||
		errors.Is(err, ErrStaleEpoch) ||
		errors.Is(err, ErrNoSuchPrepare) ||
		errors.Is(err, ErrNotOwner)
}

// ErrNotOwner reports a forwarded request landing on a member that does
// not own the device — two members disagree about placement. Answering
// 409 instead of re-forwarding turns a routing loop into a visible
// error.
var ErrNotOwner = errors.New("cluster: forwarded request for a device this member does not own")
