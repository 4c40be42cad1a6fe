package export

// The exporter acceptance benchmarks, run by `make bench-export` (the
// recorded snapshot is BENCH_7.json). The headline bound: one telemetry
// tick over a one-million-device fleet — registry walk, line-protocol
// emit, gzip, local HTTP delivery — must complete comfortably under the
// exporter's default interval; BenchmarkExportFlush1M reports the margin
// as interval_headroom.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"act/internal/fleet"
	"act/internal/scenario"
	"act/internal/units"
)

// millionFleet is built once and shared: 1M devices over 64 distinct BoMs,
// 4 regions, mixed lifetimes — the same scale the fleet acceptance
// benchmarks use.
var (
	millionOnce sync.Once
	millionReg  *fleet.Registry
)

func millionFleet(b *testing.B) *fleet.Registry {
	b.Helper()
	millionOnce.Do(func() {
		const n = 1_000_000
		reg := fleet.New(fleet.Config{Shards: 64})
		regions := []string{"united-states", "europe", "india", "world"}
		protos := make([]fleet.Device, 64)
		for i := range protos {
			protos[i] = fleet.Device{
				Region:   regions[i%len(regions)],
				Deployed: testEpoch,
				Retired:  testEpoch.Add(units.Years(1 + float64(i%3))),
				// Spread utilizations so group folds see real variance.
				Utilization: 0.25 + 0.5*float64(i%3)/2,
				Spec: &scenario.Spec{
					Name:  fmt.Sprintf("bom-%02d", i%32),
					Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(50 + i%32), Node: "7nm"}},
					DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 8}},
					Usage: scenario.UsageSpec{PowerW: 3, AppHours: 876.6},
				},
			}
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

// BenchmarkExportEmit1M measures one generator walk + line-protocol render
// over the million-device registry: the work done on the scheduler
// goroutine per tick, which must never block an ingest. Reports lines/sec
// alongside the usual per-op costs.
func BenchmarkExportEmit1M(b *testing.B) {
	gen := &FleetGenerator{Reg: millionFleet(b)}
	var lines, raw int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := getBuf()
		if err := gen.Emit(buf, testEpoch); err != nil {
			b.Fatal(err)
		}
		lines = bytes.Count(buf.Bytes(), []byte("\n"))
		raw = buf.Len()
		putBuf(buf)
	}
	b.ReportMetric(float64(lines)/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "lines/s")
	b.ReportMetric(float64(lines), "lines/op")
	b.ReportMetric(float64(raw), "payload-bytes/op")
}

// BenchmarkExportFlush1M measures the full flush path end-to-end: emit,
// gzip, HTTP POST to a local collector. One op is one complete tick's
// latency — the number that must stay under the push interval.
// interval_headroom is the exporter's default Interval() over that
// latency: how many ticks would fit in one push period.
func BenchmarkExportFlush1M(b *testing.B) {
	reg := millionFleet(b)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	exp, err := New(Config{URLs: []string{srv.URL}}, &FleetGenerator{Reg: reg})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	gen := &FleetGenerator{Reg: reg}
	var gzBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := getBuf()
		if err := gen.Emit(buf, testEpoch); err != nil {
			b.Fatal(err)
		}
		gz, err := compress(ctx, buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		gzBytes = gz.Len()
		if err := exp.pool.send(ctx, gz.Bytes()); err != nil {
			b.Fatal(err)
		}
		putBuf(gz)
		putBuf(buf)
	}
	flush := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(flush, "flush-s/op")
	b.ReportMetric(exp.Interval().Seconds()/flush, "interval_headroom")
	b.ReportMetric(float64(gzBytes), "gz-bytes/op")
}
