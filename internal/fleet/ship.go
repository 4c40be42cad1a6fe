// Snapshot shipping: state transfer for cluster node replacement. A
// replacement node does not replay history — it fetches the owner's
// current state as the same enveloped snapshot the durable store writes
// ("ACTDSNAP" | version | WAL floor | flags | header checksum, then the
// ACTFLEET body), restores it, and carries on. Because Snapshot→Restore
// is byte-identical, the replacement answers every summary with exactly
// the bytes the shipped node would have; the floor rides along so a
// replacement that mounts its own durable store knows which write-ahead
// history the shipped state already covers.

package fleet

import (
	"fmt"
	"io"
)

// WriteShip streams the registry's state to w inside the snapshot
// envelope. floor is the first WAL segment sequence NOT covered by the
// shipped state (0 for an in-memory registry).
func (r *Registry) WriteShip(w io.Writer, floor uint64) error {
	if _, err := w.Write(envelopeHeader(floor)); err != nil {
		return fmt.Errorf("fleet: ship: %w", err)
	}
	return r.Snapshot(w)
}

// ReadShip restores a shipped enveloped snapshot into the registry,
// returning the shipped WAL floor and whether the state was priced under
// different model tables than this binary carries (stale → the caller
// should Recompute before serving).
func (r *Registry) ReadShip(rd io.Reader) (floor uint64, stale bool, err error) {
	if floor, err = readEnvelope(rd); err != nil {
		return 0, false, fmt.Errorf("fleet: ship: %w", err)
	}
	stale, err = r.Restore(rd)
	return floor, stale, err
}

// Floor reports the first WAL segment sequence not covered by the
// store's snapshot — 0 before the first checkpoint. It is what a
// snapshot ship hands off so the receiver knows where live history
// starts.
func (s *Store) Floor() uint64 { return s.floor.Load() }
