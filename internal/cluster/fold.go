// The scatter-gather fold: per-node partials in, the single-registry
// summary document out, bit for bit. Partial carries the verbatim
// running state of every shard a node owns; Fold runs the registry's own
// fold (fleet.SummaryFold) over the gathered shards in global index
// order. Because each shard's floats are the shard's own running
// totals — not re-derived — and the fold visits them in the same order
// the single registry would, the folded document is byte-identical to
// what one registry holding the whole fleet serves.

package cluster

import (
	"errors"
	"fmt"

	"act/internal/faultinject"
	"act/internal/fleet"
	"act/internal/report"
)

// Partial is one node's contribution to a scatter-gather query: the
// per-shard running totals of every shard it owns, the hashes of its
// distinct BoM keys, and (when the query asked for one) its local top-K
// emitter list.
type Partial struct {
	// Node is the reporting member's base URL.
	Node string `json:"node"`
	// ShardsTotal is the registry's global shard count; every member must
	// agree on it or shard indices are not comparable.
	ShardsTotal int `json:"shards_total"`
	// Epoch counts committed cluster recomputes on the node. A fold
	// refuses mixed epochs — that is the two-phase recompute's guarantee
	// that no summary mixes shard totals priced under different tables.
	Epoch   uint64                 `json:"epoch"`
	Devices int64                  `json:"devices"`
	Shards  []fleet.ShardAggregate `json:"shards"`
	// BoMHashes are the sorted FNV-64a hashes of the node's distinct
	// canonical BoM keys; the fold counts DistinctBoMs as the size of
	// their union across nodes.
	BoMHashes []uint64 `json:"bom_hashes,omitempty"`
	// Top is the node's local top-K emitter list when the query asked for
	// one; the fold merges, re-sorts and truncates.
	Top []report.FleetDeviceJSON `json:"top,omitempty"`
}

// ErrEpochMixed reports partials gathered across a recompute commit
// wave: some nodes answered with the new pricing, some with the old.
// The caller retries the gather; a persistent mix means a node missed
// its commit and the cluster needs a recompute (or node heal) first.
var ErrEpochMixed = errors.New("cluster: partials span different recompute epochs")

// Fold merges per-node partials into the summary document for q. It is
// the cluster's answer to Registry.Query and reproduces its bytes
// exactly (see the package comment for why that holds).
func Fold(q fleet.Query, partials []Partial) (report.FleetSummaryJSON, error) {
	if err := q.Validate(); err != nil {
		return report.FleetSummaryJSON{}, err
	}
	if err := faultinject.VisitNoCtx(faultinject.SiteClusterFold); err != nil {
		return report.FleetSummaryJSON{}, fmt.Errorf("cluster: fold: %w", err)
	}
	if len(partials) == 0 {
		return report.FleetSummaryJSON{}, errors.New("cluster: fold needs at least one partial")
	}
	total := partials[0].ShardsTotal
	epoch := partials[0].Epoch
	for _, p := range partials[1:] {
		if p.ShardsTotal != total {
			return report.FleetSummaryJSON{}, fmt.Errorf(
				"cluster: shard count disagreement: %s reports %d shards, %s reports %d",
				partials[0].Node, total, p.Node, p.ShardsTotal)
		}
		if p.Epoch != epoch {
			return report.FleetSummaryJSON{}, fmt.Errorf("%w: %s at %d, %s at %d",
				ErrEpochMixed, partials[0].Node, epoch, p.Node, p.Epoch)
		}
	}
	if total <= 0 {
		return report.FleetSummaryJSON{}, fmt.Errorf("cluster: implausible shard count %d", total)
	}

	// Lay the gathered shards out by global index. Two nodes claiming the
	// same index means the membership (or ring) disagrees somewhere —
	// folding would double count, so refuse.
	type owned struct {
		node string
		agg  *fleet.ShardAggregate
	}
	byIndex := make([]owned, total)
	for pi := range partials {
		p := &partials[pi]
		for si := range p.Shards {
			sa := &p.Shards[si]
			if sa.Index < 0 || sa.Index >= total {
				return report.FleetSummaryJSON{}, fmt.Errorf(
					"cluster: %s reports shard %d outside [0,%d)", p.Node, sa.Index, total)
			}
			if prev := byIndex[sa.Index]; prev.agg != nil {
				return report.FleetSummaryJSON{}, fmt.Errorf(
					"cluster: shard %d claimed by both %s and %s (membership disagreement)",
					sa.Index, prev.node, p.Node)
			}
			byIndex[sa.Index] = owned{node: p.Node, agg: sa}
		}
	}

	// The registry's own fold, in index order. Shards no node reported
	// (empty everywhere) contribute exact zeros, which skipping preserves.
	var f fleet.SummaryFold
	f.Start(q)
	for _, o := range byIndex {
		if o.agg != nil {
			f.AddShard(o.agg)
		}
	}

	distinct := map[uint64]struct{}{}
	for _, p := range partials {
		for _, h := range p.BoMHashes {
			distinct[h] = struct{}{}
		}
	}
	var top []report.FleetDeviceJSON
	if q.TopK > 0 {
		// Each node's list is its true local top K, so the merged and
		// truncated list is the global top K.
		tops := make([][]report.FleetDeviceJSON, len(partials))
		for i := range partials {
			tops[i] = partials[i].Top
		}
		top = fleet.MergeTop(q.TopK, tops...)
	}
	return f.Finish(len(distinct), top), nil
}
