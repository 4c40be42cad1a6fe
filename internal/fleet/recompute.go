// Full recomputation. The incremental totals stay exact as long as the
// model tables behind core.Embodied are the ones the contributions were
// priced under; when the tables change (a new binary with a revised
// Table 9, say), every embodied figure in the registry is stale at once.
// Recompute re-evaluates each distinct BoM exactly once — fanned out
// through parsweep — reprices every record, and rebuilds all shard totals
// from scratch in sorted id order, the canonical fold. It is the only
// O(devices) mutation in the package, which is the point: it runs on
// table change, not on ingest.

package fleet

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"act/internal/colbatch"
	"act/internal/parsweep"
	"act/internal/scenario"
)

// Recompute re-evaluates every registered BoM against the current model
// tables and rebuilds all shard totals. The registry is locked for the
// duration; on failure (cancellation, a resolver error) it is left
// unchanged.
func (r *Registry) Recompute(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.recomputeLocked(ctx); err != nil {
		return err
	}
	if r.log != nil {
		if err := r.log.Append([]byte{opRecompute}); err != nil {
			return fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	return nil
}

// StagedRecompute is a repriced-but-not-installed registry state, the
// prepare half of the cluster's two-phase recompute: every node stages
// its repricing first, and only when every member prepared cleanly does
// the coordinator commit the swap — so a summary fold never mixes shard
// totals priced under different model tables.
type StagedRecompute struct {
	r      *Registry
	gen    uint64
	shards []*shard
	// embodied is the repriced grams per canonical key.
	embodied map[string]float64
	count    int64
}

// PrepareRecompute reprices the whole registry against the current model
// tables into a staged copy, leaving the live state untouched. Commit
// installs it; Abort discards it. The registry stays fully usable in
// between — if mutations land before Commit, the commit restages under
// its own lock rather than installing a stale pricing.
func (r *Registry) PrepareRecompute(ctx context.Context) (*StagedRecompute, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	staged, embodied, count, err := r.stageLocked(ctx)
	if err != nil {
		return nil, err
	}
	return &StagedRecompute{r: r, gen: r.gen.Load(), shards: staged, embodied: embodied, count: count}, nil
}

// Commit installs the staged state, restaging first when the registry
// mutated since Prepare. The install is logged like a plain Recompute so
// a durable registry replays it.
func (s *StagedRecompute) Commit(ctx context.Context) error {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen.Load() != s.gen {
		staged, embodied, count, err := r.stageLocked(ctx)
		if err != nil {
			return err
		}
		s.shards, s.embodied, s.count = staged, embodied, count
	}
	r.installLocked(s.shards, s.embodied, s.count)
	if r.log != nil {
		if err := r.log.Append([]byte{opRecompute}); err != nil {
			return fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	return nil
}

// Abort discards the staged state. Safe to call after a failed Commit.
func (s *StagedRecompute) Abort() { s.shards, s.embodied = nil, nil }

// recomputeLocked stages and installs in one step — the single-node
// path. The caller write-holds r.mu (no readers hold shard locks, so
// shard state is touched directly).
func (r *Registry) recomputeLocked(ctx context.Context) error {
	staged, embodied, count, err := r.stageLocked(ctx)
	if err != nil {
		return err
	}
	r.installLocked(staged, embodied, count)
	return nil
}

// stageLocked reprices every record into fresh replacement shards
// without touching the live ones. Records keep their BoM table entries;
// only the per-key embodied grams change. The caller write-holds r.mu, so
// no upsert or remove changes the table meanwhile.
func (r *Registry) stageLocked(ctx context.Context) ([]*shard, map[string]float64, int64, error) {
	// One representative spec per distinct BoM, evaluated once each.
	keys := slices.Sorted(maps.Keys(r.boms.keys))
	// Reprice the deduped BoM set through the columnar engine: contiguous
	// chunks of the sorted key list fan across the pool, each evaluated as
	// one column batch. EmbodiedTotals reports a chunk's lowest-index item
	// error and chunks are ascending, so the surfaced error is the same
	// lowest-key one the per-key fan-out reported.
	vals := make([]float64, len(keys))
	specs := make([]*scenario.Spec, len(keys))
	for i, k := range keys {
		specs[i] = r.boms.keys[k].rep.spec
	}
	const chunk = colbatch.DefaultChunk
	if _, err := parsweep.MapN(ctx, r.cfg.Workers, (len(keys)+chunk-1)/chunk, func(ctx context.Context, c int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		lo, hi := c*chunk, min((c+1)*chunk, len(keys))
		return struct{}{}, colbatch.EmbodiedTotals(specs[lo:hi], vals[lo:hi])
	}); err != nil {
		return nil, nil, 0, fmt.Errorf("fleet: recompute: %w", err)
	}
	embodied := make(map[string]float64, len(keys))
	for i, k := range keys {
		embodied[k] = vals[i]
	}

	// Stage replacement shards — nothing mutates until every record has
	// repriced cleanly, so a resolver failure leaves the registry intact.
	staged, err := parsweep.MapErrCtx(ctx, r.cfg.Workers, r.shards, func(_ context.Context, _ int, sh *shard) (*shard, error) {
		ns := newShard()
		for _, id := range slices.Sorted(maps.Keys(sh.recs)) {
			rec := *sh.recs[id]
			ci, err := r.cfg.Resolver(rec.region)
			if err != nil {
				return nil, fmt.Errorf("fleet: recompute device %q: %w", id, err)
			}
			rec.contrib = contributionOf(&rec, embodied[rec.bom.key], ci)
			ns.recs[id] = &rec
			ns.applyLocked(&rec, +1)
		}
		return ns, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}

	var count int64
	for _, ns := range staged {
		count += ns.agg.devices
	}
	return staged, embodied, count, nil
}

// installLocked swaps the staged shards and the repriced embodied grams
// in. The caller write-holds r.mu.
func (r *Registry) installLocked(staged []*shard, embodied map[string]float64, count int64) {
	copy(r.shards, staged)
	r.boms.mu.Lock()
	for key, k := range r.boms.keys {
		k.embodiedG = embodied[key]
	}
	r.boms.mu.Unlock()
	r.count.Store(count)
	r.gen.Add(1)
}
