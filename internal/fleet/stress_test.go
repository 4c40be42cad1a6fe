package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"act/internal/scenario"
)

// TestConcurrentShardConsistency hammers the registry from many goroutines
// — upserts, replacements, removes, ingests of each BoM in many spellings,
// recomputes, summaries, top-K and group-by queries all interleaving —
// then checks the invariants the sharding and the BoM table must
// preserve: the running totals equal the canonical refold of whatever
// device set survived, and the table's counts match the surviving
// records. Run under -race this is also the locking proof.
func TestConcurrentShardConsistency(t *testing.T) {
	const (
		writers = 8
		ops     = 300
		idSpace = 64 // collisions across goroutines are the point
	)
	reg := New(Config{Shards: 16})
	regions := []string{"united-states", "europe", "india", "world"}
	var compactSpecs [6][]byte
	for i := range compactSpecs {
		raw, err := scenario.Marshal(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		compactSpecs[i] = compact.Bytes()
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("dev-%02d", (g*31+i*7)%idSpace)
				switch {
				case i%5 == 4:
					if _, err := reg.Remove(id); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				case i%5 == 3:
					line := fmt.Sprintf(`{"id":%q,"region":"europe","deployed":"2024-01-01","utilization":0.5,"scenario":%s}`,
						id, respell(compactSpecs[(g+i)%6], g*ops+i))
					if _, err := reg.IngestNDJSON(strings.NewReader(line), 0); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				default:
					dev := testDevice(id, (g+i)%6, regions[(g+i)%len(regions)])
					dev.Utilization = 0.5
					if _, err := reg.Upsert(dev); err != nil {
						t.Errorf("upsert: %v", err)
						return
					}
				}
				if i%10 == 0 {
					doc := reg.Summary()
					if doc.Devices < 0 || doc.Devices > idSpace {
						t.Errorf("summary devices %d outside [0, %d]", doc.Devices, idSpace)
						return
					}
				}
				if g == 0 && i%50 == 0 {
					if err := reg.Recompute(context.Background()); err != nil {
						t.Errorf("recompute: %v", err)
						return
					}
				}
				if i%25 == 0 {
					if _, err := reg.Query(Query{TopK: 5, GroupBy: "region"}); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkBoMTable(t, reg)

	doc := reg.Summary()
	if doc.Devices != reg.Len() {
		t.Fatalf("summary devices %d != Len %d", doc.Devices, reg.Len())
	}
	top, err := reg.Query(Query{TopK: idSpace * 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Top) != doc.Devices {
		t.Fatalf("full top-K returned %d devices, summary says %d", len(top.Top), doc.Devices)
	}

	// The incremental totals must agree with the canonical refold — the
	// same check a recompute performs — modulo float reassociation across
	// the interleaved history.
	before := doc
	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := reg.Summary()
	if after.Devices != before.Devices || after.DistinctBoMs != before.DistinctBoMs {
		t.Fatalf("recompute changed the device set: %+v vs %+v", after, before)
	}
	checkBoMTable(t, reg)
	for _, d := range []struct {
		name string
		a, b float64
	}{
		{"embodied", before.EmbodiedTotalG, after.EmbodiedTotalG},
		{"share", before.EmbodiedShareG, after.EmbodiedShareG},
		{"operational", before.OperationalG, after.OperationalG},
	} {
		if diff := d.a - d.b; diff > 1e-6*d.b || diff < -1e-6*d.b {
			t.Fatalf("%s drifted from the canonical fold: %v vs %v", d.name, d.a, d.b)
		}
	}
}

// TestConcurrentWithSnapshot interleaves writers with snapshot/restore
// cycles: every snapshot must be internally consistent (it restores
// cleanly and re-snapshots byte-identically) no matter when it was cut.
// Every fourth snapshot is also restored into the live registry under the
// writers, whose BoM-table lookups then race the table's replacement.
func TestConcurrentWithSnapshot(t *testing.T) {
	reg := New(Config{Shards: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dev := testDevice(fmt.Sprintf("dev-%d-%d", g, i%32), i%4, "united-states")
				if _, err := reg.Upsert(dev); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var snap bytes.Buffer
		if err := reg.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored := New(Config{Shards: 8})
		if _, err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("snapshot %d does not restore: %v", i, err)
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot %d not stable through restore", i)
		}
		if i%4 == 0 {
			if _, err := reg.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkBoMTable(t, reg)
}

// checkBoMTable holds the BoM table to the registered records: every
// record points at the table's entry for its id, each entry counts its
// devices, and each key counts its entries.
func checkBoMTable(t *testing.T, r *Registry) {
	t.Helper()
	refs := map[*bom]int{}
	for _, sh := range r.shards {
		for _, rec := range sh.recs {
			if r.boms.entries[rec.bom.id] != rec.bom {
				t.Fatalf("device %s points at an entry the table does not hold", rec.id)
			}
			refs[rec.bom]++
		}
	}
	perKey := map[string]int{}
	for _, e := range r.boms.entries {
		if e.refs != refs[e] {
			t.Fatalf("entry %x counts %d devices, %d point at it", e.id[:4], e.refs, refs[e])
		}
		perKey[e.key]++
	}
	if len(perKey) != len(r.boms.keys) {
		t.Fatalf("table holds %d keys, its entries have %d", len(r.boms.keys), len(perKey))
	}
	for key, k := range r.boms.keys {
		if k.entries != perKey[key] {
			t.Fatalf("key counts %d entries, %d have it", k.entries, perKey[key])
		}
	}
}
