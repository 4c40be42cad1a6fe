package fleet

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"act/internal/report"
	"act/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenFleet is a fixed 50-device fleet across regions, BoMs, windows and
// utilizations — the persistence suite's shared fixture.
func goldenFleet(t *testing.T) *Registry {
	t.Helper()
	reg := New(Config{Shards: 8})
	regions := []string{"united-states", "europe", "india", "world", "brazil"}
	for i := 0; i < 50; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", i), i%7, regions[i%len(regions)])
		dev.Retired = testEpoch.Add(units.Years(0.5 + float64(i%6)))
		dev.Utilization = 0.2 + 0.15*float64(i%5)
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func summaryBytes(t *testing.T, reg *Registry) []byte {
	t.Helper()
	doc, err := reg.Query(Query{TopK: 5, GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the persistence acceptance check: snapshot →
// restore into a fresh registry → snapshot again must be byte-identical,
// and the restored registry must answer the summary with the exact bytes
// the original produced.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := goldenFleet(t)
	var snap1 bytes.Buffer
	if err := reg.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}

	// Restore adopts the snapshot's shard count even when built differently.
	reg2 := New(Config{Shards: 3})
	stale, err := reg2.Restore(bytes.NewReader(snap1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("same-binary snapshot reported stale")
	}
	if reg2.Len() != reg.Len() {
		t.Fatalf("restored Len = %d, want %d", reg2.Len(), reg.Len())
	}

	var snap2 bytes.Buffer
	if err := reg2.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical")
	}
	if a, b := summaryBytes(t, reg), summaryBytes(t, reg2); !bytes.Equal(a, b) {
		t.Fatalf("restored summary differs:\n%s\nwant:\n%s", b, a)
	}
}

// TestRestoreRebuildsClassGroups checks that the class dimension — derived
// from the scenario name, never persisted — is rebuilt on restore: the
// same groups, with the same device counts and totals close to the live
// fold (the rebuild folds in sorted-record order, so the sums may differ
// in the last ulp).
func TestRestoreRebuildsClassGroups(t *testing.T) {
	reg := goldenFleet(t)
	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	reg2 := New(Config{Shards: 2})
	if _, err := reg2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	live, err := reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := reg2.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Groups) == 0 {
		t.Fatal("fixture fleet produced no class groups")
	}
	if len(restored.Groups) != len(live.Groups) {
		t.Fatalf("restored class groups = %d, want %d", len(restored.Groups), len(live.Groups))
	}
	for i, g := range live.Groups {
		r := restored.Groups[i]
		if r.Key != g.Key || r.Devices != g.Devices {
			t.Fatalf("group %d: got %q/%d devices, want %q/%d", i, r.Key, r.Devices, g.Key, g.Devices)
		}
		if !closeEnough(r.TotalG, g.TotalG) {
			t.Fatalf("group %q: restored total %v, want %v", g.Key, r.TotalG, g.TotalG)
		}
	}
}

// closeEnough tolerates last-ulp drift from fold-order differences.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-9*(abs(a)+abs(b))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSummaryGolden pins the full summary document (totals, groups, top
// emitters) for the fixed fleet against a committed golden file, so an
// accidental change to the aggregation math or the document encoding
// shows up as a diff.
func TestSummaryGolden(t *testing.T) {
	got := summaryBytes(t, goldenFleet(t))
	path := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from golden:\n%s\nwant:\n%s", got, want)
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	reg := goldenFleet(t)
	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	data := snap.Bytes()

	t.Run("flipped byte", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x40
		if _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted snapshot restored")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := New(Config{}).Restore(bytes.NewReader(data[:len(data)-9])); err == nil {
			t.Fatal("truncated snapshot restored")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] = 'X'
		if _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("wrong magic restored")
		}
	})
}

// TestRecomputeEquivalence: recomputation refolds each shard in sorted id
// order, so its totals are byte-identical to a registry built by upserting
// the same devices in sorted order.
func TestRecomputeEquivalence(t *testing.T) {
	reg := New(Config{Shards: 8})
	// Insertion order deliberately scrambled.
	var devs []Device
	regions := []string{"united-states", "europe", "india"}
	for i := 0; i < 40; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", (i*17)%40), ((i*17)%40)%6, regions[i%3])
		dev.Utilization = 0.7
		devs = append(devs, dev)
	}
	for _, d := range devs {
		if _, err := reg.Upsert(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}

	sorted := New(Config{Shards: 8})
	ordered := append([]Device(nil), devs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, d := range ordered {
		if _, err := sorted.Upsert(d); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := summaryBytes(t, sorted), summaryBytes(t, reg); !bytes.Equal(a, b) {
		t.Fatalf("recomputed summary differs from the sorted fold:\n%s\nwant:\n%s", b, a)
	}
}

// TestRecomputeFailureLeavesStateIntact: a resolver failure mid-recompute
// must not tear the registry — the staged shards are discarded whole.
func TestRecomputeFailureLeavesStateIntact(t *testing.T) {
	fail := false
	resolver := func(region string) (units.CarbonIntensity, error) {
		if fail {
			return 0, fmt.Errorf("resolver offline")
		}
		return StaticRegions()(region)
	}
	reg := New(Config{Shards: 4, Resolver: resolver})
	for i := 0; i < 10; i++ {
		if _, err := reg.Upsert(testDevice(fmt.Sprintf("dev-%d", i), i%3, "united-states")); err != nil {
			t.Fatal(err)
		}
	}
	before := summaryBytes(t, reg)

	fail = true
	if err := reg.Recompute(context.Background()); err == nil {
		t.Fatal("recompute with a failing resolver succeeded")
	}
	fail = false
	if after := summaryBytes(t, reg); !bytes.Equal(before, after) {
		t.Fatalf("failed recompute changed state:\n%s\nwant:\n%s", after, before)
	}
}
