// Incremental aggregation queries. A summary folds the per-shard running
// totals in shard order — O(shards) work however many devices are
// registered — and group-by merges the per-shard group maps the same way.
// Top-K is the one O(devices) query: it fans the per-shard scans out
// through parsweep and merges the per-shard winners. The fold
// (SummaryFold) and the top-K merge (MergeTop) are exported because the
// cluster's scatter-gather runs them too, over gathered shard aggregates.

package fleet

import (
	"sort"

	"act/internal/acterr"
	"act/internal/parsweep"
	"act/internal/report"
)

// Query selects the optional sections of a fleet summary document.
type Query struct {
	// TopK asks for the K largest per-device emitters (0 omits the
	// section).
	TopK int
	// GroupBy adds per-group rows: "region", "node" or "class" ("" omits).
	GroupBy string
}

// Validate checks the query. Failures are typed acterr.InvalidSpecError
// values so the HTTP layer answers 400.
func (q Query) Validate() error {
	if q.TopK < 0 {
		return acterr.Invalid("top", "negative top-K %d", q.TopK)
	}
	switch q.GroupBy {
	case "", "region", "node", "class":
		return nil
	}
	return acterr.Invalid("by", "unknown grouping %q (want region, node or class)", q.GroupBy)
}

// Summary returns the aggregate fleet document from the incremental
// totals: O(shards), no per-device work.
func (r *Registry) Summary() report.FleetSummaryJSON {
	doc, _ := r.Query(Query{})
	return doc
}

// Query returns the fleet document with the requested optional sections.
func (r *Registry) Query(q Query) (report.FleetSummaryJSON, error) {
	if err := q.Validate(); err != nil {
		return report.FleetSummaryJSON{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	var f SummaryFold
	f.Start(q)
	for _, sh := range r.shards {
		sh.mu.Lock()
		f.addShard(sh)
		sh.mu.Unlock()
	}
	var top []report.FleetDeviceJSON
	if q.TopK > 0 {
		top = r.topK(q.TopK)
	}
	return f.Finish(r.evals.len(), top), nil
}

// SummaryFold is the one summary fold, shared by Registry.Query and the
// cluster's scatter-gather fold: Start it, add every shard's running
// totals in ascending shard-index order, then Finish. Float addition is
// not associative, so the visiting order is part of the answer — any two
// callers that add the same shards in the same order produce the same
// bytes.
type SummaryFold struct {
	doc report.FleetSummaryJSON
	// groups merges the query's group dimension per key; nil when the
	// query does not group.
	groups map[string]*groupAgg
}

// Start resets the fold for q.
func (f *SummaryFold) Start(q Query) {
	*f = SummaryFold{}
	if q.GroupBy != "" {
		f.doc.GroupBy = q.GroupBy
		f.groups = map[string]*groupAgg{}
	}
}

// addShard folds in one live shard straight from its running totals and
// group map. The caller holds sh.mu.
func (f *SummaryFold) addShard(sh *shard) {
	f.addTotals(sh.agg)
	if f.groups == nil {
		return
	}
	for key, g := range sh.dim(f.doc.GroupBy) {
		f.addGroup(key, *g)
	}
}

// AddShard folds in one exported shard aggregate: its totals and the
// slots of the dimension the fold groups by.
func (f *SummaryFold) AddShard(sa *ShardAggregate) {
	f.addTotals(aggregate{
		devices:        sa.Devices,
		embodiedG:      sa.EmbodiedG,
		embodiedShareG: sa.EmbodiedShareG,
		operationalG:   sa.OperationalG,
	})
	if f.groups == nil {
		return
	}
	for _, slot := range *sa.dim(f.doc.GroupBy) {
		f.addGroup(slot.Key, groupAgg{
			devices:        slot.Devices,
			embodiedShareG: slot.EmbodiedShareG,
			operationalG:   slot.OperationalG,
		})
	}
}

func (f *SummaryFold) addTotals(a aggregate) {
	f.doc.Devices += int(a.devices)
	f.doc.EmbodiedTotalG += a.embodiedG
	f.doc.EmbodiedShareG += a.embodiedShareG
	f.doc.OperationalG += a.operationalG
}

func (f *SummaryFold) addGroup(key string, g groupAgg) {
	m, ok := f.groups[key]
	if !ok {
		m = &groupAgg{}
		f.groups[key] = m
	}
	m.devices += g.devices
	m.embodiedShareG += g.embodiedShareG
	m.operationalG += g.operationalG
}

// Finish completes the document: the grand total, the distinct-BoM count,
// the group rows sorted by key, and the top-K list (nil omits it).
func (f *SummaryFold) Finish(distinctBoMs int, top []report.FleetDeviceJSON) report.FleetSummaryJSON {
	doc := f.doc
	doc.TotalG = doc.EmbodiedShareG + doc.OperationalG
	doc.DistinctBoMs = distinctBoMs
	if f.groups != nil {
		keys := make([]string, 0, len(f.groups))
		for k := range f.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		doc.Groups = make([]report.FleetGroupJSON, 0, len(keys))
		for _, k := range keys {
			g := f.groups[k]
			doc.Groups = append(doc.Groups, report.FleetGroupJSON{
				Key:            k,
				Devices:        int(g.devices),
				EmbodiedShareG: g.embodiedShareG,
				OperationalG:   g.operationalG,
				TotalG:         g.embodiedShareG + g.operationalG,
			})
		}
	}
	doc.Top = top
	return doc
}

// topK returns the K largest emitters (per-device total grams, ties broken
// by id so the answer is deterministic). Each shard scans its own records
// on a parsweep worker; MergeTop keeps the best K. The caller read-holds
// r.mu.
func (r *Registry) topK(k int) []report.FleetDeviceJSON {
	perShard := parsweep.Map(r.cfg.Workers, r.shards, func(_ int, sh *shard) []report.FleetDeviceJSON {
		sh.mu.Lock()
		local := make([]report.FleetDeviceJSON, 0, len(sh.recs))
		for _, rec := range sh.recs {
			local = append(local, report.FleetDeviceJSON{
				ID:             rec.dev.ID,
				Region:         canonRegion(rec.dev.Region),
				Node:           rec.node,
				EmbodiedG:      rec.contrib.embodiedG,
				EmbodiedShareG: rec.contrib.embodiedShareG,
				OperationalG:   rec.contrib.operationalG,
				TotalG:         rec.contrib.totalG(),
			})
		}
		sh.mu.Unlock()
		sortEmitters(local)
		return local[:min(k, len(local))]
	})
	return MergeTop(k, perShard...)
}

// MergeTop merges emitter lists into the K largest, ordered by descending
// total with ties broken by ascending id. When every list is its source's
// own top K, the result is the top K of the union — which is how
// per-shard and per-node lists merge into the fleet's.
func MergeTop(k int, lists ...[]report.FleetDeviceJSON) []report.FleetDeviceJSON {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	merged := make([]report.FleetDeviceJSON, 0, n)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sortEmitters(merged)
	return merged[:min(k, len(merged))]
}

// sortEmitters orders devices by descending total, ties by ascending id.
func sortEmitters(devs []report.FleetDeviceJSON) {
	sort.Slice(devs, func(i, j int) bool {
		if devs[i].TotalG != devs[j].TotalG {
			return devs[i].TotalG > devs[j].TotalG
		}
		return devs[i].ID < devs[j].ID
	})
}
