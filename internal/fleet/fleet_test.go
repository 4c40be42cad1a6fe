package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/intensity"
	"act/internal/scenario"
	"act/internal/units"
)

// testSpec builds a distinct scenario per index (index 0, 1, 2, ... give
// different BoM areas, so different canonical keys).
func testSpec(i int) *scenario.Spec {
	return &scenario.Spec{
		Name:  fmt.Sprintf("bom-%d", i),
		Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(10 + i), Node: "7nm"}},
		DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
		Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
	}
}

var testEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// testDevice is a full-lifetime device on BoM i.
func testDevice(id string, i int, region string) Device {
	return Device{
		ID:          id,
		Region:      region,
		Deployed:    testEpoch,
		Retired:     testEpoch.Add(units.Years(3)),
		Utilization: 1,
		Spec:        testSpec(i),
	}
}

func TestUpsertSummaryRemove(t *testing.T) {
	reg := New(Config{Shards: 8})
	for i := 0; i < 10; i++ {
		replaced, err := reg.Upsert(testDevice(fmt.Sprintf("dev-%d", i), i%3, "united-states"))
		if err != nil {
			t.Fatalf("upsert %d: %v", i, err)
		}
		if replaced {
			t.Fatalf("upsert %d reported replaced on a fresh id", i)
		}
	}
	doc := reg.Summary()
	if doc.Devices != 10 || reg.Len() != 10 {
		t.Fatalf("devices = %d (Len %d), want 10", doc.Devices, reg.Len())
	}
	if doc.DistinctBoMs != 3 {
		t.Fatalf("distinct BoMs = %d, want 3", doc.DistinctBoMs)
	}
	if doc.EmbodiedTotalG <= 0 || doc.OperationalG <= 0 {
		t.Fatalf("non-positive totals: %+v", doc)
	}
	if doc.TotalG != doc.EmbodiedShareG+doc.OperationalG {
		t.Fatalf("TotalG %v != share %v + operational %v", doc.TotalG, doc.EmbodiedShareG, doc.OperationalG)
	}

	// Replacing dev-0 with a new BoM keeps the count and updates dedup.
	replaced, err := reg.Upsert(testDevice("dev-0", 99, "europe"))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("re-upsert of dev-0 did not report replaced")
	}
	if reg.Len() != 10 {
		t.Fatalf("Len after replace = %d, want 10", reg.Len())
	}
	if got := reg.Summary().DistinctBoMs; got != 4 {
		t.Fatalf("distinct BoMs after replace = %d, want 4", got)
	}

	// Remove everything; the registry drains to empty.
	for i := 0; i < 10; i++ {
		found, err := reg.Remove(fmt.Sprintf("dev-%d", i))
		if err != nil || !found {
			t.Fatalf("remove %d: found=%v err=%v", i, found, err)
		}
	}
	if found, _ := reg.Remove("dev-0"); found {
		t.Fatal("second remove of dev-0 reported found")
	}
	doc = reg.Summary()
	if doc.Devices != 0 || doc.DistinctBoMs != 0 {
		t.Fatalf("drained summary still has devices: %+v", doc)
	}
	if math.Abs(doc.TotalG) > 1e-6 {
		t.Fatalf("drained total %v not ~0", doc.TotalG)
	}
}

// TestAmortization pins Eq. 1's T/LT behavior: half the lifetime earns
// half the embodied share, and a window past the lifetime caps at the full
// embodied footprint — never more.
func TestAmortization(t *testing.T) {
	shareFor := func(retired time.Time) (share, full float64) {
		reg := New(Config{Shards: 2})
		dev := testDevice("d", 0, "united-states")
		dev.Retired = retired
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
		doc := reg.Summary()
		return doc.EmbodiedShareG, doc.EmbodiedTotalG
	}

	share, full := shareFor(testEpoch.Add(units.Years(1.5)))
	if want := full / 2; math.Abs(share-want) > 1e-9*full {
		t.Fatalf("half-lifetime share = %v, want %v (ECF %v)", share, want, full)
	}
	share, full = shareFor(testEpoch.Add(units.Years(10)))
	if share != full {
		t.Fatalf("overlong window share = %v, want the full ECF %v", share, full)
	}
}

// TestUtilizationScalesOperational: operational carbon is linear in the
// utilization fraction; embodied is not affected by it.
func TestUtilizationScalesOperational(t *testing.T) {
	docFor := func(util float64) (op, share float64) {
		reg := New(Config{Shards: 2})
		dev := testDevice("d", 0, "united-states")
		dev.Utilization = util
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
		doc := reg.Summary()
		return doc.OperationalG, doc.EmbodiedShareG
	}
	opFull, shareFull := docFor(1)
	opHalf, shareHalf := docFor(0.5)
	if math.Abs(opHalf-opFull/2) > 1e-9*opFull {
		t.Fatalf("operational at 0.5 utilization = %v, want %v", opHalf, opFull/2)
	}
	if shareFull != shareHalf {
		t.Fatalf("embodied share changed with utilization: %v vs %v", shareFull, shareHalf)
	}
}

func TestTypedValidation(t *testing.T) {
	reg := New(Config{Shards: 2})
	cases := []struct {
		name  string
		field string
		mut   func(*Device)
	}{
		{"missing id", "id", func(d *Device) { d.ID = "" }},
		{"missing region", "region", func(d *Device) { d.Region = "  " }},
		{"unknown region", "region", func(d *Device) { d.Region = "atlantis" }},
		{"missing deployed", "deployed", func(d *Device) { d.Deployed = time.Time{} }},
		{"retire before deploy", "retired", func(d *Device) { d.Retired = d.Deployed.Add(-time.Hour) }},
		{"utilization above 1", "utilization", func(d *Device) { d.Utilization = 1.5 }},
		{"negative utilization", "utilization", func(d *Device) { d.Utilization = -0.1 }},
		{"missing scenario", "scenario", func(d *Device) { d.Spec = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := testDevice("d", 0, "united-states")
			tc.mut(&dev)
			_, err := reg.Upsert(dev)
			if err == nil {
				t.Fatal("invalid device accepted")
			}
			if !acterr.IsInvalid(err) {
				t.Fatalf("error %v is not a typed validation error", err)
			}
			var inv *acterr.InvalidSpecError
			if !errors.As(err, &inv) || inv.Field != tc.field {
				t.Fatalf("error %v does not name field %q", err, tc.field)
			}
			if reg.Len() != 0 {
				t.Fatalf("failed upsert mutated the registry (Len %d)", reg.Len())
			}
		})
	}
	if got := reg.Summary().DistinctBoMs; got != 0 {
		t.Fatalf("failed upserts left %d eval-cache residue entries", got)
	}
}

func TestGroupByAndTopK(t *testing.T) {
	reg := New(Config{Shards: 4})
	regions := []string{"united-states", "europe", "india"}
	for i := 0; i < 9; i++ {
		dev := testDevice(fmt.Sprintf("dev-%d", i), i, regions[i%3])
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	// A logic-less device groups under node "".
	nologic := testDevice("dev-nologic", 0, "world")
	nologic.Spec = &scenario.Spec{
		Name:  "dram-only",
		DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 8}},
		Usage: scenario.UsageSpec{PowerW: 1, AppHours: 100},
	}
	if _, err := reg.Upsert(nologic); err != nil {
		t.Fatal(err)
	}

	doc, err := reg.Query(Query{GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 4 {
		t.Fatalf("got %d region groups, want 4: %+v", len(doc.Groups), doc.Groups)
	}
	var sumShare, sumOp float64
	var sumDev int
	for i, g := range doc.Groups {
		if i > 0 && doc.Groups[i-1].Key >= g.Key {
			t.Fatalf("groups not sorted by key: %q then %q", doc.Groups[i-1].Key, g.Key)
		}
		sumShare += g.EmbodiedShareG
		sumOp += g.OperationalG
		sumDev += g.Devices
	}
	if sumDev != doc.Devices {
		t.Fatalf("group device counts sum to %d, total is %d", sumDev, doc.Devices)
	}
	if math.Abs(sumShare-doc.EmbodiedShareG) > 1e-6 || math.Abs(sumOp-doc.OperationalG) > 1e-6 {
		t.Fatalf("group totals (%v, %v) do not sum to fleet totals (%v, %v)",
			sumShare, sumOp, doc.EmbodiedShareG, doc.OperationalG)
	}

	doc, err = reg.Query(Query{GroupBy: "node"})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 2 || doc.Groups[0].Key != "" || doc.Groups[1].Key != "7nm" {
		t.Fatalf("node groups = %+v, want \"\" and 7nm", doc.Groups)
	}

	doc, err = reg.Query(Query{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Top) != 3 {
		t.Fatalf("top has %d entries, want 3", len(doc.Top))
	}
	for i := 1; i < len(doc.Top); i++ {
		a, b := doc.Top[i-1], doc.Top[i]
		if a.TotalG < b.TotalG || (a.TotalG == b.TotalG && a.ID >= b.ID) {
			t.Fatalf("top not ordered (desc total, ties asc id): %+v then %+v", a, b)
		}
	}
	// BoM areas grow with the index, so the largest emitter is dev-8.
	if doc.Top[0].ID != "dev-8" {
		t.Fatalf("top emitter = %q, want dev-8", doc.Top[0].ID)
	}
	// Asking for more than exist returns all, still ordered.
	doc, _ = reg.Query(Query{TopK: 100})
	if len(doc.Top) != 10 {
		t.Fatalf("topK over fleet size returned %d, want 10", len(doc.Top))
	}
}

func TestGroupByClass(t *testing.T) {
	reg := New(Config{Shards: 4})
	for i := 0; i < 6; i++ {
		// Two devices per BoM; the class key is the canonicalized device
		// name, so bom-0, bom-1, bom-2 give three class groups.
		dev := testDevice(fmt.Sprintf("dev-%d", i), i%3, "united-states")
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	// Class names canonicalize: "BOM-0  " groups with "bom-0".
	shouty := testDevice("dev-shouty", 0, "europe")
	shouty.Spec.Name = "BOM-0  "
	if _, err := reg.Upsert(shouty); err != nil {
		t.Fatal(err)
	}

	doc, err := reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.GroupBy != "class" || len(doc.Groups) != 3 {
		t.Fatalf("class groups = %+v, want 3 under group_by=class", doc.Groups)
	}
	byKey := map[string]int{}
	var sumShare, sumOp float64
	for _, g := range doc.Groups {
		byKey[g.Key] = g.Devices
		sumShare += g.EmbodiedShareG
		sumOp += g.OperationalG
	}
	if byKey["bom-0"] != 3 || byKey["bom-1"] != 2 || byKey["bom-2"] != 2 {
		t.Fatalf("class device counts = %v, want bom-0:3 bom-1:2 bom-2:2", byKey)
	}
	if math.Abs(sumShare-doc.EmbodiedShareG) > 1e-6 || math.Abs(sumOp-doc.OperationalG) > 1e-6 {
		t.Fatalf("class totals (%v, %v) do not sum to fleet totals (%v, %v)",
			sumShare, sumOp, doc.EmbodiedShareG, doc.OperationalG)
	}

	// Removal unwinds the class fold; the last member evicts the group.
	if _, err := reg.Remove("dev-shouty"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Remove("dev-2"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Remove("dev-5"); err != nil {
		t.Fatal(err)
	}
	doc, err = reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Groups) != 2 {
		t.Fatalf("after removals class groups = %+v, want bom-0 and bom-1 only", doc.Groups)
	}
	for _, g := range doc.Groups {
		if g.Key == "bom-2" {
			t.Fatalf("emptied class group bom-2 survived: %+v", g)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	reg := New(Config{})
	if _, err := reg.Query(Query{TopK: -1}); !acterr.IsInvalid(err) {
		t.Fatalf("negative top-K: %v", err)
	}
	if _, err := reg.Query(Query{GroupBy: "color"}); !acterr.IsInvalid(err) {
		t.Fatalf("unknown grouping: %v", err)
	}
}

func TestIngestNDJSON(t *testing.T) {
	spec, err := scenario.Marshal(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	line := func(id string) string {
		return fmt.Sprintf(`{"id":%q,"region":"united-states","deployed":"2024-01-01","scenario":%s}`, id, spec)
	}

	t.Run("defaults", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		res, err := reg.IngestNDJSON(strings.NewReader(line("a")+"\n"+line("b")+"\n"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Upserted != 2 || res.Replaced != 0 {
			t.Fatalf("result = %+v, want 2 upserted", res)
		}
		// retired defaulted to deployed + lifetime: the full share amortizes.
		doc := reg.Summary()
		if doc.EmbodiedShareG != doc.EmbodiedTotalG {
			t.Fatalf("defaulted retire date: share %v != total %v", doc.EmbodiedShareG, doc.EmbodiedTotalG)
		}
	})

	t.Run("malformed line is typed with its index", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		res, err := reg.IngestNDJSON(strings.NewReader(line("a")+"\n{not json\n"), 0)
		if err == nil {
			t.Fatal("malformed stream accepted")
		}
		if !acterr.IsInvalid(err) || !strings.Contains(err.Error(), "device[1]") {
			t.Fatalf("error %v: want a typed error naming device[1]", err)
		}
		if res.Upserted != 1 || reg.Len() != 1 {
			t.Fatalf("partial apply: res %+v, Len %d — the good prefix must stay", res, reg.Len())
		}
	})

	t.Run("bad record field is typed with its index", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		bad := fmt.Sprintf(`{"id":"x","region":"united-states","deployed":"not-a-date","scenario":%s}`, spec)
		_, err := reg.IngestNDJSON(strings.NewReader(bad), 0)
		var inv *acterr.InvalidSpecError
		if !errors.As(err, &inv) || !strings.HasPrefix(inv.Field, "device[0].deployed") {
			t.Fatalf("error %v: want field device[0].deployed", err)
		}
	})

	t.Run("unknown wire field rejected", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		bad := fmt.Sprintf(`{"id":"x","region":"united-states","deployed":"2024-01-01","bogus":1,"scenario":%s}`, spec)
		if _, err := reg.IngestNDJSON(strings.NewReader(bad), 0); err == nil {
			t.Fatal("unknown field accepted")
		}
	})

	t.Run("limit", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		stream := line("a") + "\n" + line("b") + "\n" + line("c") + "\n"
		res, err := reg.IngestNDJSON(strings.NewReader(stream), 2)
		if !errors.Is(err, ErrTooMany) {
			t.Fatalf("error = %v, want ErrTooMany", err)
		}
		if res.Upserted != 2 {
			t.Fatalf("upserted %d before the limit, want 2", res.Upserted)
		}
	})

	t.Run("rfc3339 dates", func(t *testing.T) {
		reg := New(Config{Shards: 2})
		l := fmt.Sprintf(`{"id":"x","region":"united-states","deployed":"2024-01-01T12:00:00Z","retired":"2026-06-01T00:00:00Z","scenario":%s}`, spec)
		if _, err := reg.IngestNDJSON(strings.NewReader(l), 0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestResolvers(t *testing.T) {
	static := StaticRegions()
	ci, err := static("  United-States ")
	if err != nil {
		t.Fatalf("canonicalized region rejected: %v", err)
	}
	if ci <= 0 {
		t.Fatalf("non-positive intensity %v", ci)
	}
	if _, err := static("atlantis"); !acterr.IsInvalid(err) {
		t.Fatalf("unknown region: %v", err)
	}

	// A traced region resolves to its daily mean; others fall back.
	tr, err := intensity.Clip(intensity.Constant(units.GramsPerKWh(100)), 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	res := TraceResolver(map[string]intensity.Trace{"iceland": tr}, static)
	got, err := res("Iceland")
	if err != nil {
		t.Fatal(err)
	}
	if got != units.GramsPerKWh(100) {
		t.Fatalf("traced mean = %v, want 100 g/kWh", got)
	}
	if _, err := res("united-states"); err != nil {
		t.Fatalf("fallback region failed: %v", err)
	}
	if _, err := res("atlantis"); !acterr.IsInvalid(err) {
		t.Fatalf("unknown region through fallback: %v", err)
	}

	// Registry-level: a traced registry prices operational at the trace mean.
	reg := New(Config{Shards: 2, Resolver: res})
	dev := testDevice("d", 0, "iceland")
	if _, err := reg.Upsert(dev); err != nil {
		t.Fatal(err)
	}
	doc := reg.Summary()
	hours := dev.Retired.Sub(dev.Deployed).Hours()
	wantOp := units.GramsPerKWh(100).Emitted(units.KilowattHours(dev.Spec.Usage.PowerW * hours / 1000)).Grams()
	if math.Abs(doc.OperationalG-wantOp) > 1e-6*wantOp {
		t.Fatalf("traced operational = %v, want %v", doc.OperationalG, wantOp)
	}
}

// TestDedupSharesEvaluation pins the dedup contract: a thousand devices on
// one BoM cost one embodied evaluation and report one distinct BoM.
func TestDedupSharesEvaluation(t *testing.T) {
	reg := New(Config{Shards: 8})
	var buf bytes.Buffer
	spec, _ := scenario.Marshal(testSpec(0))
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&buf, `{"id":"dev-%d","region":"united-states","deployed":"2024-01-01","scenario":%s}`+"\n", i, spec)
	}
	if _, err := reg.IngestNDJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	doc := reg.Summary()
	if doc.Devices != 1000 || doc.DistinctBoMs != 1 {
		t.Fatalf("devices=%d distinct=%d, want 1000/1", doc.Devices, doc.DistinctBoMs)
	}
}

// TestSummaryZeroAllocs holds the O(shards) summary to zero allocations:
// it folds the running totals and builds no per-device state.
func TestSummaryZeroAllocs(t *testing.T) {
	reg := goldenFleet(t)
	if n := testing.AllocsPerRun(100, func() { _ = reg.Summary() }); n != 0 {
		t.Fatalf("Summary allocates %v times per call, want 0", n)
	}
}

// TestParsedDeviceGivenAnotherSpec: a parsed device whose Spec is replaced
// is keyed by its new spec, not by the line's scenario bytes, so a later
// line with those bytes still registers the BoM they spell.
// TestParsedDeviceOwnsItsKey reuses the line buffer between ParseDevice
// and Upsert, as a line scanner does: the device must keep its own BoM.
func TestParsedDeviceOwnsItsKey(t *testing.T) {
	var lines [2][]byte // same length, different BoMs
	for i := range lines {
		raw, err := scenario.Marshal(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		lines[i] = []byte(fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","scenario":%s}`, compact.Bytes()))
	}
	reg := New(Config{Shards: 2})
	if _, err := reg.IngestNDJSON(bytes.NewReader(bytes.Replace(lines[1], []byte(`"a"`), []byte(`"b"`), 1)), 0); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte{}, lines[0]...)
	dev, err := ParseDevice(buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, lines[1])
	if _, err := reg.Upsert(*dev); err != nil {
		t.Fatal(err)
	}
	doc, err := reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.DistinctBoMs != 2 || len(doc.Groups) != 2 {
		t.Fatalf("got %d BoMs, class groups %+v; want bom-0 and bom-1", doc.DistinctBoMs, doc.Groups)
	}
}

func TestParsedDeviceGivenAnotherSpec(t *testing.T) {
	raw, err := scenario.Marshal(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"id":"a","region":"europe","deployed":"2024-01-01","scenario":%s}`, raw)
	dev, err := ParseDevice([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	dev.Spec = testSpec(1)
	reg := New(Config{Shards: 2})
	if _, err := reg.Upsert(*dev); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.IngestNDJSON(strings.NewReader(strings.Replace(line, `"a"`, `"b"`, 1)), 0); err != nil {
		t.Fatal(err)
	}
	doc, err := reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.DistinctBoMs != 2 || len(doc.Groups) != 2 ||
		doc.Groups[0].Key != "bom-0" || doc.Groups[1].Key != "bom-1" {
		t.Fatalf("got %d BoMs, class groups %+v; want bom-0 and bom-1", doc.DistinctBoMs, doc.Groups)
	}
}

// TestBoMTableReinsert covers an upsert whose entry left the table
// between its lookup and its commit, released by a remove or dropped with
// a table Restore replaced: retain inserts the entry again with its count
// restarted.
func TestBoMTableReinsert(t *testing.T) {
	var tab bomTable
	spec := testSpec(0)
	raw, err := scenario.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cand, g, err := tab.find(sha256.Sum256(raw), raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := tab.retain(cand, g)
	tab.retain(e, g)
	tab.entries, tab.keys = nil, nil // a Restore's replacement, empty
	if got := tab.retain(e, g); got != e || e.refs != 1 || tab.keys[e.key].entries != 1 {
		t.Fatalf("after a table replacement: refs %d, key entries %d; want 1, 1", e.refs, tab.keys[e.key].entries)
	}
	tab.release(e)
	if len(tab.entries) != 0 || len(tab.keys) != 0 {
		t.Fatalf("released entry left %d entries, %d keys", len(tab.entries), len(tab.keys))
	}
	if tab.retain(e, g); e.refs != 1 || tab.keys[e.key].entries != 1 {
		t.Fatalf("after a release: refs %d, key entries %d; want 1, 1", e.refs, tab.keys[e.key].entries)
	}
}
