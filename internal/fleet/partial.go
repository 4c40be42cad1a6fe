// Per-shard aggregate export, the cluster's scatter-gather unit. A
// multi-node fleet cannot fold per-NODE scalar subtotals into the same
// bytes a single registry serves: float addition is not associative, and
// the single-node fold adds per-shard running totals in shard-index
// order. What a node can export losslessly is the per-SHARD state itself
// — the exact running totals of every shard it owns, the sorted group
// maps, and the hashes of its distinct BoM keys. As long as each global
// shard index lives wholly on one node (the cluster places devices at
// shard grain for exactly this reason), a coordinator that re-folds the
// gathered shard aggregates in index order reproduces the single-node
// fold bit for bit.

package fleet

import (
	"hash/fnv"
	"sort"
)

// GroupSlot is one group-by entry of one shard's running totals.
type GroupSlot struct {
	Key            string  `json:"key"`
	Devices        int64   `json:"devices"`
	EmbodiedShareG float64 `json:"embodied_share_g"`
	OperationalG   float64 `json:"operational_g"`
}

// ShardAggregate is the verbatim running state of one shard: the same
// float bits the shard would contribute to a local Query fold. Group
// entries are sorted by key so the encoding is deterministic; the fold
// merges them per key in shard-index order, which is the order the
// single-node fold visits them.
type ShardAggregate struct {
	// Index is the global shard index (FNV-64a of the device id mod the
	// registry's shard count).
	Index          int         `json:"index"`
	Devices        int64       `json:"devices"`
	EmbodiedG      float64     `json:"embodied_g"`
	EmbodiedShareG float64     `json:"embodied_share_g"`
	OperationalG   float64     `json:"operational_g"`
	ByRegion       []GroupSlot `json:"by_region,omitempty"`
	ByNode         []GroupSlot `json:"by_node,omitempty"`
	ByClass        []GroupSlot `json:"by_class,omitempty"`
}

// dim returns the slot list of the group-by dimension a query names —
// "region", "node" or "class" — or nil for "".
func (sa *ShardAggregate) dim(groupBy string) *[]GroupSlot {
	switch groupBy {
	case "region":
		return &sa.ByRegion
	case "node":
		return &sa.ByNode
	case "class":
		return &sa.ByClass
	}
	return nil
}

// ShardCount returns the registry's shard count. Every member of a
// cluster must agree on it, or shard indices would not be comparable.
func (r *Registry) ShardCount() int {
	return len(r.shards)
}

// ShardAggregates exports the running totals of every shard that holds
// state, in ascending index order. Shards with no records and zeroed
// totals are omitted — re-folding them would add exact zeros, which the
// fold re-synthesizes. A shard whose records were all removed can retain
// a nonzero float residue (cancellation is exact only pairwise), so the
// filter keys on the full aggregate state, not the record count.
//
// groupBy names the one dimension whose per-key slots ride along —
// "region", "node" or "class" — or "" for scalars only. A fold reads
// exactly the dimension its query groups by, so shipping the other two
// (per shard, per distinct key) would only inflate the scatter payload:
// at cluster scale that is the difference between a partial sized by the
// shard count and one sized by shards x distinct BoMs.
func (r *Registry) ShardAggregates(groupBy string) []ShardAggregate {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ShardAggregate, 0, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.Lock()
		if len(sh.recs) == 0 && sh.agg == (aggregate{}) &&
			len(sh.byRegion) == 0 && len(sh.byNode) == 0 && len(sh.byClass) == 0 {
			sh.mu.Unlock()
			continue
		}
		sa := ShardAggregate{
			Index:          i,
			Devices:        sh.agg.devices,
			EmbodiedG:      sh.agg.embodiedG,
			EmbodiedShareG: sh.agg.embodiedShareG,
			OperationalG:   sh.agg.operationalG,
		}
		if slots := sa.dim(groupBy); slots != nil {
			*slots = groupSlots(sh.dim(groupBy))
		}
		out = append(out, sa)
		sh.mu.Unlock()
	}
	return out
}

func groupSlots(dim map[string]*groupAgg) []GroupSlot {
	if len(dim) == 0 {
		return nil
	}
	out := make([]GroupSlot, 0, len(dim))
	for k, g := range dim {
		out = append(out, GroupSlot{
			Key:            k,
			Devices:        g.devices,
			EmbodiedShareG: g.embodiedShareG,
			OperationalG:   g.operationalG,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// BoMKeyHashes returns the sorted FNV-64a hashes of the registry's
// distinct canonical BoM keys. The cluster fold counts DistinctBoMs as
// the size of the union of every node's hash set: a BoM deployed on two
// nodes contributes one element, exactly as the single registry's
// refcounted eval cache counts it. Hashes travel instead of the keys
// themselves because a canonical key is a full scenario encoding; the
// count is exact unless two distinct keys in the same fleet collide in
// 64 bits.
func (r *Registry) BoMKeyHashes() []uint64 {
	r.evals.mu.Lock()
	out := make([]uint64, 0, len(r.evals.entries))
	for k := range r.evals.entries {
		h := fnv.New64a()
		_, _ = h.Write([]byte(k))
		out = append(out, h.Sum64())
	}
	r.evals.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShardIndex computes the global shard index a device id folds into for
// a registry of `shards` lock domains: FNV-64a of the id, mod shards.
// The registry places devices with it (shardFor) and the cluster routes
// by consistent-hashing it, so the routing layer and the registry can
// never disagree about which shard a device lives in.
func ShardIndex(id string, shards int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}
