package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"act/internal/scenario"
)

// benchLines pre-renders NDJSON device lines over `distinct` BoM shapes.
func benchLines(b testing.TB, n, distinct int) [][]byte {
	b.Helper()
	regions := []string{"united-states", "europe", "india", "world"}
	specs := make([][]byte, distinct)
	for i := range specs {
		raw, err := scenario.Marshal(testSpec(i))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = raw
	}
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(
			`{"id":"dev-%07d","region":%q,"deployed":"2024-01-01","utilization":0.5,"scenario":%s}`,
			i, regions[i%len(regions)], specs[i%distinct]))
	}
	return lines
}

// BenchmarkFleetIngest measures the full per-device ingest path: NDJSON
// decode, validation, canonical-key dedup, contribution pricing, shard
// apply.
func BenchmarkFleetIngest(b *testing.B) {
	lines := benchLines(b, 4096, 32)
	reg := New(Config{Shards: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.IngestNDJSON(bytes.NewReader(lines[i%len(lines)]), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetIngestBoMs ingests n devices into a fresh registry per
// op under three BoM mixes: "shared", 32 BoMs each sent as the same
// compact bytes (the perfbench fleet's shape); "unique", every device its
// own BoM; "respelled", 32 BoMs each device spells with its own
// whitespace. It reports ingest time and retained heap per device.
func BenchmarkFleetIngestBoMs(b *testing.B) {
	const n = 4096
	for _, mix := range []string{"shared", "unique", "respelled"} {
		b.Run(mix, func(b *testing.B) {
			var body bytes.Buffer
			for i := 0; i < n; i++ {
				bom, variant := i%32, 0
				switch mix {
				case "unique":
					bom = i
				case "respelled":
					variant = i
				}
				raw, err := scenario.Marshal(testSpec(bom))
				if err != nil {
					b.Fatal(err)
				}
				var compact bytes.Buffer
				if err := json.Compact(&compact, raw); err != nil {
					b.Fatal(err)
				}
				fmt.Fprintf(&body, `{"id":"dev-%07d","region":"europe","deployed":"2024-01-01","utilization":0.5,"scenario":%s}`+"\n",
					i, respell(compact.Bytes(), variant))
			}
			ingest := func() *Registry {
				reg := New(Config{Shards: 64})
				if _, err := reg.IngestNDJSON(bytes.NewReader(body.Bytes()), 0); err != nil {
					b.Fatal(err)
				}
				return reg
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			reg := ingest()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			runtime.KeepAlive(reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingest()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/device")
			b.ReportMetric((float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/n, "heap-B/device")
		})
	}
}

// respell puts a space after the j-th ',' or ':' of compact JSON (which
// has neither inside its strings) for each bit j set in variant.
func respell(compact []byte, variant int) []byte {
	var out []byte
	j := 0
	for _, c := range compact {
		out = append(out, c)
		if c == ',' || c == ':' {
			if variant>>j&1 == 1 {
				out = append(out, ' ')
			}
			j++
		}
	}
	return out
}

var deviceSink *Device

// BenchmarkParseDevice decodes and validates one NDJSON device line, its
// embedded scenario included: the per-record cost of ingest before the
// registry is touched.
func BenchmarkParseDevice(b *testing.B) {
	lines := benchLines(b, 1024, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := ParseDevice(lines[i%len(lines)])
		if err != nil {
			b.Fatal(err)
		}
		deviceSink = dev
	}
}

// millionFleet is built once and shared across summary benchmarks: the
// acceptance target is a fleet-wide summary over one million devices.
var (
	millionOnce sync.Once
	millionReg  *Registry
)

func millionFleet(b *testing.B) *Registry {
	b.Helper()
	millionOnce.Do(func() {
		const n = 1_000_000
		reg := New(Config{Shards: 64})
		regions := []string{"united-states", "europe", "india", "world"}
		// Pre-parse the distinct devices once; Upsert re-evaluates the
		// canonical key per call, which is the realistic ingest cost.
		protos := make([]Device, 64)
		for i := range protos {
			protos[i] = testDevice("proto", i%32, regions[i%len(regions)])
			protos[i].Utilization = 0.5
		}
		for i := 0; i < n; i++ {
			dev := protos[i%len(protos)]
			dev.ID = fmt.Sprintf("dev-%07d", i)
			if _, err := reg.Upsert(dev); err != nil {
				panic(err)
			}
		}
		millionReg = reg
	})
	return millionReg
}

// BenchmarkFleetSummary pins the headline guarantee: the incremental
// aggregates answer a fleet-wide summary over 1M devices in O(shards) —
// the acceptance bound is <10ms per summary.
func BenchmarkFleetSummary(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := reg.Summary()
		if doc.Devices != 1_000_000 {
			b.Fatalf("summary devices = %d", doc.Devices)
		}
	}
}

// BenchmarkFleetSummaryGrouped adds the group-by merge across shards.
func BenchmarkFleetSummaryGrouped(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Query(Query{GroupBy: "region"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTopK is the one O(devices) query, for contrast with the
// O(shards) summary above.
func BenchmarkFleetTopK(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Query(Query{TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetRecompute reprices the full million-device registry: the
// deduped BoM set re-evaluates through the columnar engine, then every
// shard refolds in canonical order. This is the one O(devices) mutation;
// the acceptance bound is single-digit seconds per recompute at 1M devices.
func BenchmarkFleetRecompute(b *testing.B) {
	reg := millionFleet(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Recompute(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*1_000_000/b.Elapsed().Seconds(), "devices/s")
}
