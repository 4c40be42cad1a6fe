// Snapshot persistence. A snapshot is the registry's exact state — every
// record plus every shard's running totals, persisted verbatim as raw
// float bits — framed as:
//
//	magic "ACTFLEET" | u32 format version (1)
//	u64 model-table fingerprint (memdb.Fingerprint at write time)
//	u32 shard count
//	per shard:
//	  u32 record count, records sorted by id (see codec.go)
//	  u64 devices | f64 embodied | f64 embodied share | f64 operational
//	  group maps (byRegion then byNode), each: u32 n, entries sorted by
//	  key: str key | u64 devices | f64 embodied share | f64 operational
//	u64 FNV-64a checksum of every preceding byte
//
// Because the totals are stored rather than re-derived, Snapshot →
// Restore → Snapshot is byte-identical, and a restored registry answers
// the summary with exactly the bytes the live one did. A fingerprint
// mismatch on restore means the binary's model tables changed since the
// snapshot: the restore still loads, but reports stale=true so the caller
// runs Recompute.

package fleet

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"slices"

	"act/internal/faultinject"
	"act/internal/memdb"
)

const (
	snapshotMagic   = "ACTFLEET"
	snapshotVersion = 1
)

// Snapshot writes the registry's full state to w. It holds the registry
// write lock, so the snapshot is a consistent point in time.
func (r *Registry) Snapshot(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(w)
}

func (r *Registry) snapshotLocked(w io.Writer) error {
	h := fnv.New64a()
	bw := bufio.NewWriter(io.MultiWriter(w, h))

	var b []byte
	b = append(b, snapshotMagic...)
	b = appendU32(b, snapshotVersion)
	b = appendU64(b, memdb.Fingerprint())
	b = appendU32(b, uint32(len(r.shards)))
	if _, err := bw.Write(b); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}

	for _, sh := range r.shards {
		if err := faultinject.VisitNoCtx(faultinject.SiteFleetSnapshot); err != nil {
			return fmt.Errorf("fleet: snapshot: %w", err)
		}
		frame := encodeShard(sh)
		if _, err := bw.Write(frame); err != nil {
			return fmt.Errorf("fleet: snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	// The checksum trails the hashed payload and is written raw.
	var sum []byte
	sum = appendU64(sum, h.Sum64())
	if _, err := w.Write(sum); err != nil {
		return fmt.Errorf("fleet: snapshot: %w", err)
	}
	return nil
}

// encodeShard frames one shard: sorted records, verbatim totals, sorted
// group maps.
func encodeShard(sh *shard) []byte {
	ids := slices.Sorted(maps.Keys(sh.recs))
	var b []byte
	b = appendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = encodeRecord(b, sh.recs[id])
	}
	b = appendU64(b, uint64(sh.agg.devices))
	b = appendF64(b, sh.agg.embodiedG)
	b = appendF64(b, sh.agg.embodiedShareG)
	b = appendF64(b, sh.agg.operationalG)
	b = encodeGroups(b, sh.byRegion)
	b = encodeGroups(b, sh.byNode)
	return b
}

func encodeGroups(b []byte, dim map[string]*groupAgg) []byte {
	keys := slices.Sorted(maps.Keys(dim))
	b = appendU32(b, uint32(len(keys)))
	for _, k := range keys {
		g := dim[k]
		b = appendString(b, k)
		b = appendU64(b, uint64(g.devices))
		b = appendF64(b, g.embodiedShareG)
		b = appendF64(b, g.operationalG)
	}
	return b
}

// Restore replaces the registry's state with the snapshot read from rd.
// The registry adopts the snapshot's shard count. stale reports that the
// snapshot was written against different model tables than this binary
// carries — the state loaded, but its embodied figures predate the table
// change, so the caller should Recompute.
func (r *Registry) Restore(rd io.Reader) (stale bool, err error) {
	h := fnv.New64a()
	d := &reader{r: io.TeeReader(bufio.NewReader(rd), h)}

	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return false, fmt.Errorf("fleet: restore: %w", err)
	}
	if string(magic) != snapshotMagic {
		return false, fmt.Errorf("fleet: restore: bad magic %q", magic)
	}
	if v := d.u32(); d.err == nil && v != snapshotVersion {
		return false, fmt.Errorf("fleet: restore: unsupported snapshot version %d", v)
	}
	fp := d.u64()
	shardCount := d.u32()
	if d.err != nil {
		return false, fmt.Errorf("fleet: restore: %w", d.err)
	}
	if shardCount == 0 || shardCount > 1<<16 {
		return false, fmt.Errorf("fleet: restore: implausible shard count %d", shardCount)
	}

	shards := make([]*shard, shardCount)
	boms := &bomTable{}
	var count int64
	for i := range shards {
		sh, err := decodeShard(d, boms)
		if err != nil {
			return false, fmt.Errorf("fleet: restore: shard %d: %w", i, err)
		}
		shards[i] = sh
		count += sh.agg.devices
	}
	want := h.Sum64() // checksum of everything consumed so far
	got := d.u64()    // trailer, raw
	if d.err != nil {
		return false, fmt.Errorf("fleet: restore: %w", d.err)
	}
	if got != want {
		return false, fmt.Errorf("fleet: restore: checksum mismatch (snapshot corrupt or truncated)")
	}

	r.mu.Lock()
	r.shards = shards
	r.cfg.Shards = int(shardCount)
	r.boms.mu.Lock()
	r.boms.entries, r.boms.keys = boms.entries, boms.keys
	r.boms.mu.Unlock()
	r.count.Store(count)
	r.gen.Add(1)
	r.mu.Unlock()
	return fp != memdb.Fingerprint(), nil
}

func decodeShard(d *reader, boms *bomTable) (*shard, error) {
	sh := newShard()
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	for i := uint32(0); i < n; i++ {
		rec, err := decodeRecord(d, boms)
		if err != nil {
			return nil, err
		}
		rec.bom = boms.retain(rec.bom, rec.contrib.embodiedG)
		sh.recs[rec.id] = rec
		// The class dimension is derived from the scenario, not persisted:
		// rebuild it here, folding in the stream's sorted-by-id record order
		// so a restore is deterministic. (Unlike the persisted byRegion and
		// byNode maps, the fold order differs from live apply order, so a
		// restored class sum may differ from the live one in the last ulp.)
		applyGroup(sh.byClass, rec.bom.class, rec.contrib, +1)
	}
	sh.agg.devices = int64(d.u64())
	sh.agg.embodiedG = d.f64()
	sh.agg.embodiedShareG = d.f64()
	sh.agg.operationalG = d.f64()
	var err error
	if sh.byRegion, err = decodeGroups(d); err != nil {
		return nil, err
	}
	if sh.byNode, err = decodeGroups(d); err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	if sh.agg.devices != int64(len(sh.recs)) {
		return nil, fmt.Errorf("fleet: restore: totals claim %d devices, shard holds %d",
			sh.agg.devices, len(sh.recs))
	}
	return sh, nil
}

func decodeGroups(d *reader) (map[string]*groupAgg, error) {
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	out := make(map[string]*groupAgg, n)
	for i := uint32(0); i < n; i++ {
		k := d.str()
		g := &groupAgg{}
		g.devices = int64(d.u64())
		g.embodiedShareG = d.f64()
		g.operationalG = d.f64()
		if d.err != nil {
			return nil, d.err
		}
		out[k] = g
	}
	return out, nil
}

// CheckpointFunc runs fn with the registry write-locked, handing it a
// snapshot function bound to that lock. The segmented store (persist.go)
// uses it to order an entire compaction — rotate the WAL, stream the
// snapshot, rename it in — as one atomic section: because appends need
// the read lock, no operation can land between the rotation that fixes
// the snapshot's replay floor and the snapshot that justifies it.
func (r *Registry) CheckpointFunc(fn func(snapshot func(w io.Writer) error) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fn(func(w io.Writer) error { return r.snapshotLocked(w) })
}
