// Incremental aggregation queries. A summary folds the per-shard running
// totals in shard order — O(shards) work however many devices are
// registered — and group-by merges the per-shard group maps the same way.
// Top-K is the one O(devices) query: one sequential scan of every shard's
// dense totals column feeds a heap of the min(k, devices) best records,
// and only those become documents. The fold (SummaryFold) and the top-K
// merge of per-node lists (MergeTop) are exported because the cluster's
// scatter-gather runs them too, over gathered shard aggregates.

package fleet

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"act/internal/acterr"
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
	top := r.topK(q.TopK)
	r.boms.mu.Lock()
	distinct := len(r.boms.keys) // canonical keys, not spellings
	r.boms.mu.Unlock()
	return f.Finish(distinct, top), nil
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

// TopK returns the K largest emitters (per-device total grams, ties
// broken by id so the answer is deterministic), the list a Query with
// TopK: k carries.
func (r *Registry) TopK(k int) []report.FleetDeviceJSON {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.topK(k)
}

// ranked is a top-K candidate: a record and its total, as its shard's tot
// column holds it.
type ranked struct {
	totalG float64
	rec    *record
}

// rankCmp orders candidates as top-K lists do: descending total, ties by
// ascending id. Ids are unique, so the order is strict.
func rankCmp(a, b ranked) int {
	if c := cmp.Compare(b.totalG, a.totalG); c != 0 {
		return c
	}
	return strings.Compare(a.rec.id, b.rec.id)
}

// topK scans every shard's tot column once, in index order, keeping the
// min(k, devices) best candidates in a heap with the worst-ranked at the
// root: a device that cannot displace the root costs one float compare,
// and its id is read only when its total ties the root's. Only the kept
// records become documents. The caller read-holds r.mu.
func (r *Registry) topK(k int) []report.FleetDeviceJSON {
	if k <= 0 {
		return nil
	}
	h := make([]ranked, 0, min(k, r.Len()))
	for _, sh := range r.shards {
		sh.mu.Lock()
		for i, t := range sh.tot {
			switch {
			case len(h) < k:
				h = append(h, ranked{t, sh.rows[i]})
				for j := len(h) - 1; j > 0 && rankCmp(h[j], h[(j-1)/2]) > 0; j = (j - 1) / 2 {
					h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
				}
			case t < h[0].totalG:
				// Ranks below the root: the common case.
			case rankCmp(ranked{t, sh.rows[i]}, h[0]) < 0:
				h[0] = ranked{t, sh.rows[i]}
				for j, c := 0, 1; c < len(h); j, c = c, 2*c+1 {
					if c+1 < len(h) && rankCmp(h[c+1], h[c]) > 0 {
						c++
					}
					if rankCmp(h[c], h[j]) <= 0 {
						break
					}
					h[j], h[c] = h[c], h[j]
				}
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(h, rankCmp)
	out := make([]report.FleetDeviceJSON, len(h))
	for i, c := range h {
		rec := c.rec
		out[i] = report.FleetDeviceJSON{
			ID:             rec.id,
			Region:         canon(rec.region),
			Node:           rec.bom.node,
			EmbodiedG:      rec.contrib.embodiedG,
			EmbodiedShareG: rec.contrib.embodiedShareG,
			OperationalG:   rec.contrib.operationalG,
			TotalG:         c.totalG,
		}
	}
	return out
}

// MergeTop merges emitter lists into the K largest, ordered by descending
// total with ties broken by ascending id. When every list is its source's
// own top K, the result is the top K of the union — which is how per-node
// lists merge into the fleet's.
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
	slices.SortFunc(devs, func(a, b report.FleetDeviceJSON) int {
		if c := cmp.Compare(b.TotalG, a.TotalG); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
}
