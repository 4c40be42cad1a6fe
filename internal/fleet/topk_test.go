package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"act/internal/report"
	"act/internal/units"
)

// topKOracle is top-K the direct way: document every record, sort each
// shard whole, keep its first k, and merge. The bounded per-shard
// selection behind Query must return exactly this list.
func (r *Registry) topKOracle(k int) []report.FleetDeviceJSON {
	r.mu.RLock()
	defer r.mu.RUnlock()
	perShard := make([][]report.FleetDeviceJSON, len(r.shards))
	for i, sh := range r.shards {
		perShard[i] = shardTopOracle(sh, k)
	}
	return MergeTop(k, perShard...)
}

// shardTopOracle is one shard's first k records after a full sort.
func shardTopOracle(sh *shard, k int) []report.FleetDeviceJSON {
	sh.mu.Lock()
	local := make([]report.FleetDeviceJSON, 0, len(sh.recs))
	for _, rec := range sh.recs {
		local = append(local, report.FleetDeviceJSON{
			ID:             rec.id,
			Region:         canon(rec.region),
			Node:           rec.bom.node,
			EmbodiedG:      rec.contrib.embodiedG,
			EmbodiedShareG: rec.contrib.embodiedShareG,
			OperationalG:   rec.contrib.operationalG,
			TotalG:         rec.contrib.totalG(),
		})
	}
	sh.mu.Unlock()
	sortEmitters(local)
	return local[:min(k, len(local))]
}

// checkTopK compares the served top-K list with the oracle's for k, and
// each shard's own selection with that shard's sorted prefix (a selection
// bug can hide behind the merge when other shards cover for it).
func checkTopK(t testing.TB, reg *Registry, k int) {
	t.Helper()
	doc, err := reg.Query(Query{TopK: k})
	if err != nil {
		t.Fatal(err)
	}
	want := reg.topKOracle(k)
	if !reflect.DeepEqual(doc.Top, want) {
		t.Fatalf("top-%d differs from the oracle:\ngot  %v\nwant %v", k, ids(doc.Top), ids(want))
	}
	if n := min(k, reg.Len()); len(doc.Top) != n {
		t.Fatalf("top-%d returned %d devices, want %d", k, len(doc.Top), n)
	}
	for i, sh := range reg.shards {
		sh.mu.Lock()
		sel := selectTop(sh.recs, k)
		sh.mu.Unlock()
		got := make([]string, len(sel))
		for j, rec := range sel {
			got[j] = rec.id
		}
		if want := ids(shardTopOracle(sh, k)); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d top-%d differs from its sorted prefix:\ngot  %v\nwant %v", i, k, got, want)
		}
	}
}

func ids(devs []report.FleetDeviceJSON) []string {
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.ID
	}
	return out
}

// tiedFleet registers n devices whose totals repeat: the total depends
// only on (BoM, utilization), six combinations in all, so every total is
// shared by about n/6 devices and ids alone order them.
func tiedFleet(t testing.TB, reg *Registry, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		dev := testDevice(fmt.Sprintf("dev-%03d", i), i%3, "europe")
		dev.Utilization = 0.5 + 0.5*float64((i/3)%2)
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
}

// topKCases is the k grid: the extremes, the sizes of the largest shard
// and one below it, the device count and one past it.
func topKCases(reg *Registry) []int {
	largest := 0
	for _, sh := range reg.shards {
		largest = max(largest, len(sh.recs))
	}
	n := reg.Len()
	return []int{1, 3, 10, largest - 1, largest, n, n + 1}
}

func TestTopKMatchesOracle(t *testing.T) {
	reg := New(Config{Shards: 4})
	tiedFleet(t, reg, 60)
	check := func(stage string) {
		t.Helper()
		for _, k := range topKCases(reg) {
			if k < 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/k=%d", stage, k), func(t *testing.T) { checkTopK(t, reg, k) })
		}
	}
	check("ties")

	// Churn: replace a third of the fleet onto other BoMs and windows,
	// remove a sixth.
	for i := 0; i < 60; i += 3 {
		dev := testDevice(fmt.Sprintf("dev-%03d", i), (i+1)%3, "india")
		dev.Retired = testEpoch.Add(units.Years(1 + float64(i%4)))
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 60; i += 6 {
		if _, err := reg.Remove(fmt.Sprintf("dev-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("churn")

	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("recompute")

	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if _, err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	for _, k := range topKCases(restored) {
		checkTopK(t, restored, k)
		a, _ := reg.Query(Query{TopK: k})
		b, _ := restored.Query(Query{TopK: k})
		if !reflect.DeepEqual(a.Top, b.Top) {
			t.Fatalf("restored top-%d differs from the live registry's", k)
		}
	}
}

// TestTopKUnboundedK asks for far more emitters than exist. The per-shard
// buffers are sized by the shard, so the query allocates nothing near k
// and answers every device, in rank order (checkTopK checks both).
func TestTopKUnboundedK(t *testing.T) {
	reg := New(Config{Shards: 4})
	tiedFleet(t, reg, 12)
	checkTopK(t, reg, math.MaxInt32)
}

// FuzzFleetTopK drives a registry through a random op sequence — upserts
// over few BoMs, regions and utilizations (so totals tie), removes,
// recomputes, snapshot→restore — and holds the served top-K to the
// oracle for a random k, after every op.
func FuzzFleetTopK(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(3))
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0x02, 0x13}, uint32(0x80000000))
	f.Add(bytes.Repeat([]byte{0x04, 0x44, 0x84, 0xc4}, 8), uint32(1))
	regions := []string{"united-states", "europe", "india"}
	f.Fuzz(func(t *testing.T, ops []byte, kRaw uint32) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		k := int(kRaw%40) + 1
		if kRaw&0x80000000 != 0 {
			k = math.MaxInt32
		}
		reg := New(Config{Shards: 3})
		for _, op := range ops {
			id := fmt.Sprintf("d%02d", op&0x1f)
			switch op >> 5 {
			case 0, 1, 2, 3: // upsert: BoM, region and utilization from the op
				dev := testDevice(id, int(op>>5)%2, regions[int(op)%len(regions)])
				dev.Utilization = 0.25 * float64(1+int(op>>6))
				if _, err := reg.Upsert(dev); err != nil {
					t.Fatal(err)
				}
			case 4, 5:
				if _, err := reg.Remove(id); err != nil {
					t.Fatal(err)
				}
			case 6:
				if err := reg.Recompute(context.Background()); err != nil {
					t.Fatal(err)
				}
			case 7:
				var snap bytes.Buffer
				if err := reg.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				next := New(Config{Shards: 3})
				if _, err := next.Restore(&snap); err != nil {
					t.Fatal(err)
				}
				reg = next
			}
			checkTopK(t, reg, k)
		}
	})
}
