// Package fleet is ACT's fleet-wide carbon accounting layer: a sharded,
// concurrency-safe in-memory device registry with incremental aggregation.
// The paper's equations price a single device; the quantity its motivating
// data (and the companion fleet study, "Chasing Carbon") cares about is
// the footprint of millions of devices amortizing embodied carbon over
// staggered lifetimes while operational carbon tracks regional grid
// intensity. This package keeps that quantity always-available:
//
//   - Devices are upserted with an id, a deployment region, deploy/retire
//     dates, a utilization fraction, and a scenario BoM. Every device sent
//     with the same scenario bytes shares one BoM table entry (the parsed
//     spec and everything derived from it), and entries with the same
//     scenario.CanonicalKey share one embodied-carbon evaluation.
//   - Every upsert/remove updates its shard's running totals: the
//     amortized embodied share follows Eq. 1's T/LT with T the device's
//     deployed window capped at LT; the operational share prices the
//     device's energy at its region's grid intensity (Table 6, or a
//     time-resolved grid/intensity trace).
//   - A summary is therefore O(shards), not O(devices); full recomputation
//     fans out through parsweep only when the model tables change.
//
// The aggregation invariant: each shard's totals equal the fold of the
// contributions applied to it, in apply order. Snapshots persist the
// totals verbatim (not recomputed), which is what makes a snapshot →
// restart → restore cycle reproduce the summary byte-identically.
package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/acterr"
	"act/internal/colbatch"
	"act/internal/fab"
	"act/internal/faultinject"
	"act/internal/intensity"
	"act/internal/scenario"
	"act/internal/units"
)

// Device is one validated fleet member: the parsed form of a device line
// in the NDJSON wire format (see ParseDevice).
type Device struct {
	// ID is the unique fleet-wide device identifier; a second upsert with
	// the same ID replaces the first.
	ID string
	// Region names the deployment grid (a Table 6 region by default; the
	// registry's IntensityResolver interprets it).
	Region string
	// Deployed and Retired bound the device's in-service window. The
	// window length is T in Eq. 1's T/LT amortization, capped at LT.
	Deployed, Retired time.Time
	// Utilization is the fraction of the deployed window the device draws
	// its scenario power, in [0, 1].
	Utilization float64
	// Spec is the device's bill of materials and power draw. Only the BoM
	// and usage.power_w are consulted: app-hours come from the deployed
	// window and utilization, and the operational intensity from Region.
	Spec *scenario.Spec
	// wire is the digest of ParseDevice's scenario bytes and parsed their
	// decoding; wire keys the BoM table while Spec == parsed.
	wire   bomID
	parsed *scenario.Spec
}

// Validate checks the parsed device. Failures are typed
// acterr.InvalidSpecError values carrying the offending field.
func (d *Device) Validate() error {
	if d.ID == "" {
		return acterr.Invalid("id", "missing device id")
	}
	if strings.TrimSpace(d.Region) == "" {
		return acterr.Invalid("region", "missing region")
	}
	if d.Deployed.IsZero() {
		return acterr.Invalid("deployed", "missing deploy date")
	}
	if !d.Retired.After(d.Deployed) {
		return acterr.Invalid("retired", "retire date %s not after deploy date %s",
			d.Retired.Format(dateFormat), d.Deployed.Format(dateFormat))
	}
	if d.Utilization < 0 || d.Utilization > 1 {
		return acterr.Invalid("utilization", "utilization %v outside [0, 1]", d.Utilization)
	}
	if d.Spec == nil {
		return acterr.Invalid("scenario", "missing scenario")
	}
	return nil
}

// contribution is what one device adds to its shard's running totals.
// It is computed once at upsert (or recompute) and carried verbatim
// through the write-ahead log and snapshots, so replay and restore never
// re-evaluate the model.
type contribution struct {
	// embodiedG is the full embodied footprint of the BoM (ECF).
	embodiedG float64
	// embodiedShareG is ECF x min(active, LT)/LT, Eq. 1's amortized share.
	embodiedShareG float64
	// operationalG prices power x active hours x utilization at the
	// region's grid intensity.
	operationalG float64
}

func (c contribution) totalG() float64 { return c.embodiedShareG + c.operationalG }

// record is a registered device, its BoM table entry and its contribution.
type record struct {
	id                string
	region            string
	deployed, retired time.Time
	utilization       float64
	bom               *bom
	contrib           contribution
}

// aggregate is one shard's running totals.
type aggregate struct {
	devices        int64
	embodiedG      float64
	embodiedShareG float64
	operationalG   float64
}

func (a *aggregate) add(c contribution, sign float64) {
	a.embodiedG += sign * c.embodiedG
	a.embodiedShareG += sign * c.embodiedShareG
	a.operationalG += sign * c.operationalG
}

// groupAgg is a running total for one group-by key.
type groupAgg struct {
	devices        int64
	embodiedShareG float64
	operationalG   float64
}

// shard is one lock domain of the registry.
type shard struct {
	mu       sync.Mutex
	recs     map[string]*record
	agg      aggregate
	byRegion map[string]*groupAgg
	byNode   map[string]*groupAgg
	byClass  map[string]*groupAgg
}

func newShard() *shard {
	return &shard{
		recs:     map[string]*record{},
		byRegion: map[string]*groupAgg{},
		byNode:   map[string]*groupAgg{},
		byClass:  map[string]*groupAgg{},
	}
}

// applyLocked folds rec into (sign=+1) or out of (sign=-1) the shard's
// totals. The caller holds sh.mu.
func (sh *shard) applyLocked(rec *record, sign float64) {
	sh.agg.add(rec.contrib, sign)
	sh.agg.devices += int64(sign)
	applyGroup(sh.byRegion, canon(rec.region), rec.contrib, sign)
	applyGroup(sh.byNode, rec.bom.node, rec.contrib, sign)
	applyGroup(sh.byClass, rec.bom.class, rec.contrib, sign)
}

// dim returns the group-by dimension a query names — "region", "node" or
// "class" — or nil for "". The caller holds sh.mu.
func (sh *shard) dim(groupBy string) map[string]*groupAgg {
	switch groupBy {
	case "region":
		return sh.byRegion
	case "node":
		return sh.byNode
	case "class":
		return sh.byClass
	}
	return nil
}

func applyGroup(dim map[string]*groupAgg, key string, c contribution, sign float64) {
	g, ok := dim[key]
	if !ok {
		g = &groupAgg{}
		dim[key] = g
	}
	g.devices += int64(sign)
	g.embodiedShareG += sign * c.embodiedShareG
	g.operationalG += sign * c.operationalG
	if g.devices == 0 {
		delete(dim, key)
	}
}

// IntensityResolver maps a deployment region to its operational grid
// intensity (CIuse). Unknown regions return a typed validation error.
type IntensityResolver func(region string) (units.CarbonIntensity, error)

// StaticRegions resolves regions against the paper's Table 6 averages —
// the default resolver.
func StaticRegions() IntensityResolver {
	return func(region string) (units.CarbonIntensity, error) {
		info, err := intensity.ByRegion(intensity.Region(canon(region)))
		if err != nil {
			return 0, acterr.Invalid("region", "unknown region %q (want a Table 6 name)", region)
		}
		return info.Intensity, nil
	}
}

// Config tunes a Registry. Zero fields take the documented defaults.
type Config struct {
	// Shards is the lock-domain count (default 64). A summary is O(Shards).
	Shards int
	// Resolver maps regions to operational intensity (default
	// StaticRegions).
	Resolver IntensityResolver
	// Workers bounds the parsweep fan-out of Recompute and TopK queries
	// (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.Resolver == nil {
		c.Resolver = StaticRegions()
	}
	return c
}

// Registry is the sharded fleet store. All methods are safe for concurrent
// use.
type Registry struct {
	// mu is the structural lock: read-held by per-device operations and
	// queries (which then take shard locks), write-held by whole-registry
	// operations (snapshot, restore, recompute, WAL attach, checkpoint).
	mu     sync.RWMutex
	cfg    Config
	shards []*shard
	boms   bomTable
	count  atomic.Int64
	// gen counts structural mutations (upsert, remove, restore, recompute
	// install). A staged recompute remembers the generation it priced and
	// restages at commit if mutations landed in between.
	gen atomic.Uint64
	log *segWAL // nil until a Store attaches its WAL
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	return r
}

// Len returns the registered device count.
func (r *Registry) Len() int { return int(r.count.Load()) }

// shardFor picks the shard owning an id.
func (r *Registry) shardFor(id string) *shard {
	return r.shards[ShardIndex(id, len(r.shards))]
}

// Upsert registers dev, replacing any device with the same ID, and folds
// its contribution into the owning shard's running totals. The device's
// BoM table entry is found by the digest of its scenario's exact bytes,
// or built on a miss. Validation failures are typed; a write-ahead-log
// failure aborts the upsert with the registry unchanged.
func (r *Registry) Upsert(dev Device) (replaced bool, err error) {
	if err := dev.Validate(); err != nil {
		return false, fmt.Errorf("fleet: %w", err)
	}
	id, specJSON := dev.wire, []byte(nil)
	if dev.Spec != dev.parsed {
		if specJSON, err = scenario.Marshal(dev.Spec); err != nil {
			return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
		}
		id = sha256.Sum256(specJSON)
	}
	b, embodiedG, err := r.boms.find(id, specJSON, dev.Spec)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	ci, err := r.cfg.Resolver(dev.Region)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", err)
	}
	rec := &record{id: dev.ID, region: dev.Region, deployed: dev.Deployed,
		retired: dev.Retired, utilization: dev.Utilization, bom: b}
	rec.contrib = contributionOf(rec, embodiedG, ci)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.apply(rec, true)
}

// contributionOf prices a device: Eq. 1's amortized embodied share plus
// the operational emissions of its deployed window.
func contributionOf(rec *record, embodiedG float64, ci units.CarbonIntensity) contribution {
	lt := rec.bom.spec.Lifetime()
	activeHours := rec.retired.Sub(rec.deployed).Hours()
	amort := activeHours / (365.25 * 24) / lt
	if amort > 1 {
		amort = 1
	}
	energyKWh := rec.bom.spec.Usage.PowerW * activeHours / 1000
	opG := ci.Emitted(units.KilowattHours(energyKWh)).Grams() * rec.utilization
	return contribution{
		embodiedG:      embodiedG,
		embodiedShareG: embodiedG * amort,
		operationalG:   opG,
	}
}

// apply commits a fully evaluated record: chaos seam, write-ahead log,
// then the in-memory mutation (which cannot fail). The caller read-holds
// r.mu.
func (r *Registry) apply(rec *record, logIt bool) (replaced bool, err error) {
	sh := r.shardFor(rec.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := faultinject.VisitNoCtx(faultinject.SiteFleetShard); err != nil {
		return false, fmt.Errorf("fleet: shard apply: %w", err)
	}
	if logIt && r.log != nil {
		if err := r.log.Append(encodeUpsert(rec)); err != nil {
			return false, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	old, existed := sh.recs[rec.id]
	if existed {
		sh.applyLocked(old, -1)
	} else {
		r.count.Add(1)
	}
	r.gen.Add(1)
	rec.bom = r.boms.retain(rec.bom, rec.contrib.embodiedG)
	sh.recs[rec.id] = rec
	sh.applyLocked(rec, +1)
	if existed {
		r.boms.release(old.bom)
	}
	return existed, nil
}

// Remove unregisters a device, subtracting its contribution from the
// shard totals. It reports whether the id was present.
func (r *Registry) Remove(id string) (found bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.remove(id, true)
}

func (r *Registry) remove(id string, logIt bool) (bool, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.recs[id]
	if !ok {
		return false, nil
	}
	if err := faultinject.VisitNoCtx(faultinject.SiteFleetShard); err != nil {
		return false, fmt.Errorf("fleet: shard apply: %w", err)
	}
	if logIt && r.log != nil {
		if err := r.log.Append(encodeRemove(id)); err != nil {
			return false, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	delete(sh.recs, id)
	sh.applyLocked(rec, -1)
	r.count.Add(-1)
	r.gen.Add(1)
	r.boms.release(rec.bom)
	return true, nil
}

// primaryNode resolves the group-by-node dimension: the first logic die's
// process node, snapped to its characterized entry the way the fab layer
// does ("16nm" groups as "14nm"). Devices without logic group under "".
func primaryNode(spec *scenario.Spec) (string, error) {
	if len(spec.Logic) == 0 {
		return "", nil
	}
	params, err := fab.ParseNode(spec.Logic[0].Node)
	if err != nil {
		return "", acterr.Prefix("logic[0].node", err)
	}
	return string(params.Node), nil
}

// canon normalizes a region name the way the intensity tables do, and a
// device-class name the same way, so "Mobile-Phone" and "mobile-phone "
// group together.
func canon(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// bomID is the SHA-256 digest of a scenario's exact bytes.
type bomID [sha256.Size]byte

// bom is one BoM table entry: a scenario as the registry received it and
// everything derived from it, shared by every device sent with the same
// scenario bytes. All fields but refs are immutable.
type bom struct {
	id       bomID
	spec     *scenario.Spec
	specJSON []byte // scenario.Marshal's form, what snapshots and the WAL carry
	key      string // scenario.CanonicalKey, the embodied-evaluation dedup key
	// node is the canonical primary process node (the first logic die's,
	// snapped), the group-by-node dimension; "" for logic-less devices.
	node  string
	class string // canonical device name, the group-by-class key; not persisted
	refs  int    // registered devices pointing at the entry
}

// bomTable is the registry's one table of BoMs, keyed on the digest of
// the exact scenario bytes (two scenarios share an entry only if their
// bytes collide in SHA-256): the device line's scenario field on ingest,
// the persisted specJSON on replay and restore, scenario.Marshal's output
// for a device built in code. Never on the canonical key, which
// normalizes defaults that marshal differently, so two spellings of one
// BoM are two entries. keys gives them one shared embodied evaluation and
// counts them: len(keys) is the exact distinct-BoM count. The zero table
// is empty and ready to use.
type bomTable struct {
	mu      sync.Mutex
	entries map[bomID]*bom
	keys    map[string]*bomKey
}

type bomKey struct {
	embodiedG float64
	rep       *bom // the key's first entry: its spec is what Recompute reprices
	entries   int
}

// entry returns the entry for id, or nil when there is none.
func (t *bomTable) entry(id bomID) *bom {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[id]
}

// find returns the entry for id and its embodied grams. On a miss it
// builds an unregistered entry from spec (and specJSON, its Marshal form,
// when the caller has it) outside the lock: a known key lends it its
// evaluation, and its spec and bytes when they marshal alike; else the BoM
// is evaluated. Only retain inserts, once the upsert commits.
func (t *bomTable) find(id bomID, specJSON []byte, spec *scenario.Spec) (*bom, float64, error) {
	t.mu.Lock()
	if b, ok := t.entries[id]; ok {
		defer t.mu.Unlock()
		return b, t.keys[b.key].embodiedG, nil
	}
	t.mu.Unlock()
	node, err := primaryNode(spec)
	if err == nil && specJSON == nil {
		specJSON, err = scenario.Marshal(spec)
	}
	if err != nil {
		return nil, 0, err
	}
	b := &bom{id: id, spec: spec, specJSON: specJSON,
		key: spec.CanonicalKey(), node: node, class: canon(spec.Name)}
	t.mu.Lock()
	if k := t.keys[b.key]; k != nil {
		defer t.mu.Unlock()
		if b.key = k.rep.key; bytes.Equal(specJSON, k.rep.specJSON) {
			b.spec, b.specJSON = k.rep.spec, k.rep.specJSON
		}
		return b, k.embodiedG, nil
	}
	t.mu.Unlock()
	// Priced through colbatch as Recompute does: one BoM, one pricing.
	var out [1]float64
	err = colbatch.EmbodiedTotals([]*scenario.Spec{spec}, out[:])
	return b, out[0], err
}

// retain registers one more device on the table's entry for b's id,
// inserting b (a candidate from find, or an entry since released or of a
// table since replaced wholesale, whose count restarts) when there is
// none, and returns the entry.
func (t *bomTable) retain(b *bom, embodiedG float64) *bom {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries, t.keys = map[bomID]*bom{}, map[string]*bomKey{}
	}
	e, ok := t.entries[b.id]
	if !ok {
		e = b
		e.refs = 0
		t.entries[e.id] = e
		if t.keys[e.key] == nil {
			t.keys[e.key] = &bomKey{embodiedG: embodiedG, rep: e}
		}
		t.keys[e.key].entries++
	}
	e.refs++
	return e
}

// release drops one device from b. The entry leaves the table with its
// last device, and its key with its last entry.
func (t *bomTable) release(b *bom) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b.refs--; b.refs == 0 {
		delete(t.entries, b.id)
		k := t.keys[b.key]
		if k.entries--; k.entries == 0 {
			delete(t.keys, b.key)
		}
	}
}

// dateFormat is the wire date form (RFC 3339 is also accepted on input).
const dateFormat = "2006-01-02"
