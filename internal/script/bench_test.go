package script

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"act/internal/colbatch"
	"act/internal/scenario"
)

// The acceptance measurement for `make bench-script` (the recorded
// snapshot is BENCH_9.json): the same 1000-scenario sweep priced through a
// script program versus the direct colbatch path. The delta is the
// interpreter's overhead — the price of the sandbox — paid once per sweep
// (the scenario construction loop and the host-call surcharge), not per
// scenario: the pricing itself routes through the identical columnar
// engine.

const benchSweepN = 1000

// benchSweepProgram builds N scenarios in-language and prices them in one
// batched host call, folding a scalar out of the documents so the decode
// cost is realistic.
func benchSweepProgram(n int) string {
	return fmt.Sprintf(`let specs = []
for i in range(%d) {
  append(specs, {
    "name": format("sweep-%%d", i),
    "logic": [{"name": "soc", "area_mm2": 50 + i %% 50, "node": "7nm"}],
    "dram": [{"name": "ram", "technology": "lpddr4", "capacity_gb": 4}],
    "usage": {"power_w": 2, "app_hours": 876.6}
  })
}
let docs = footprint(specs)
let total = 0
for d in docs {
  total = total + d["total_g"]
}
total
`, n)
}

// benchSweepSpecs is the same sweep built natively.
func benchSweepSpecs(n int) []*scenario.Spec {
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = &scenario.Spec{
			Name:  fmt.Sprintf("sweep-%d", i),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(50 + i%50), Node: "7nm"}},
			DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
		}
	}
	return specs
}

// BenchmarkScriptSweep1k prices the sweep through a script program, then,
// with the benchmark timer stopped, through the direct colbatch path for
// as long again. ns/op, B/op and allocs/op are the script path's alone;
// direct_ns is the direct path's time per sweep, and script_overhead_x is
// the ratio of the two. Each side runs in its own hot loop after a GC,
// as two separate benchmarks would.
func BenchmarkScriptSweep1k(b *testing.B) {
	src := benchSweepProgram(benchSweepN)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		res, err := Eval(ctx, src, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Value.(float64); !ok {
			b.Fatalf("sweep result is %T, want number", res.Value)
		}
	}
	scriptNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	specs := benchSweepSpecs(benchSweepN)
	runtime.GC()
	sweeps := 0
	start := time.Now()
	for time.Since(start) < b.Elapsed() {
		directSweep(b, specs)
		sweeps++
	}
	directNS := float64(time.Since(start).Nanoseconds()) / float64(sweeps)

	b.ReportMetric(benchSweepN*1e9/scriptNS, "scenarios/s")
	b.ReportMetric(directNS, "direct_ns")
	b.ReportMetric(scriptNS/directNS, "script_overhead_x")
}

// directSweep prices specs through colbatch and touches every document,
// the native counterpart of the script program's fold.
func directSweep(b *testing.B, specs []*scenario.Spec) {
	r := colbatch.Eval(specs)
	defer r.Close()
	if _, err := r.FirstErr(); err != nil {
		b.Fatal(err)
	}
	total := 0
	for j := 0; j < r.Len(); j++ {
		total += len(r.Doc(j))
	}
	if total == 0 {
		b.Fatal("empty documents")
	}
}

// TestBenchSweepProgramAgrees pins that the two benchmark paths price the
// same sweep: the script's folded total equals the fold over the direct
// documents, so the benchmark comparison is apples to apples.
func TestBenchSweepProgramAgrees(t *testing.T) {
	const n = 50
	res, err := Eval(context.Background(), benchSweepProgram(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Value.(float64)
	if !ok {
		t.Fatalf("script total is %T", res.Value)
	}
	r := colbatch.Eval(benchSweepSpecs(n))
	defer r.Close()
	if _, err := r.FirstErr(); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < r.Len(); i++ {
		doc := r.Doc(i)
		var out struct {
			TotalG float64 `json:"total_g"`
		}
		if err := json.Unmarshal(doc, &out); err != nil {
			t.Fatal(err)
		}
		want += out.TotalG
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("script total %v != direct total %v", got, want)
	}
}
