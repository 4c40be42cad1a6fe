package colbatch

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"act/internal/acterr"
	"act/internal/report"
	"act/internal/scenario"
)

// variants is a corpus of valid specs covering every evaluation shape:
// defaults, PUE and battery scaling, every component class, life-cycle
// with and without each section, hostile names, and magnitudes that force
// the 'e' float format.
func variants() []*scenario.Spec {
	return []*scenario.Spec{
		scenario.Example(),
		{ // minimal: one module, all defaults
			Name:  "minimal",
			DRAM:  []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}},
			Usage: scenario.UsageSpec{PowerW: 1, AppHours: 100},
		},
		{ // datacenter: PUE, HDD + SSD, multi-logic, extra ICs
			Name: "server",
			Logic: []scenario.LogicSpec{
				{Name: "cpu", AreaMM2: 400, Node: "14nm", Count: 2},
				{Name: "nic", AreaMM2: 50, Node: "28nm"},
			},
			DRAM:          []scenario.DRAMSpec{{Name: "dimm", Technology: "10nm-ddr4", CapacityGB: 256}},
			Storage:       []scenario.StorageSpec{{Name: "hdd", Technology: "exosx16", CapacityGB: 14000}, {Name: "ssd", Technology: "nytro-1551", CapacityGB: 1920}},
			ExtraICs:      40,
			Usage:         scenario.UsageSpec{PowerW: 300, AppHours: 8766, PUE: 1.4},
			LifetimeYears: 4,
		},
		{ // custom fab parameters
			Name: "custom-fab",
			Logic: []scenario.LogicSpec{{
				Name: "soc", AreaMM2: 120, Node: "7nm",
				Fab: &scenario.FabSpec{CarbonIntensity: 50, Abatement: 0.99, Yield: 0.9},
			}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 1000, IntensityGPerKWh: 700},
		},
		{ // transport only (no end-of-life)
			Name:      "transport-only",
			Logic:     []scenario.LogicSpec{{Name: "soc", AreaMM2: 80, Node: "10nm"}},
			Usage:     scenario.UsageSpec{PowerW: 2, AppHours: 500},
			Transport: []scenario.TransportSpec{{Name: "ship", MassKg: 2, DistanceKm: 20000, Mode: "Sea"}},
		},
		{ // end-of-life only, credit exceeding processing (floors to 0)
			Name:      "eol-only",
			Storage:   []scenario.StorageSpec{{Name: "s", Technology: "wd-2019", CapacityGB: 512}},
			Usage:     scenario.UsageSpec{PowerW: 0.5, AppHours: 2000, BatteryEfficiency: 0.9},
			EndOfLife: &scenario.EndOfLifeSpec{ProcessingKg: 0.1, RecyclingCreditKg: 5},
		},
		{ // hostile strings: HTML escapes, controls, invalid UTF-8, U+2028
			Name:  "a<b>&\"\\\n\t\x01\x80ü z",
			Logic: []scenario.LogicSpec{{Name: "die <&>  ", AreaMM2: 10, Node: "28nm"}},
			Usage: scenario.UsageSpec{PowerW: 1, AppHours: 10},
		},
		{ // magnitudes forcing the 'e' float format both ways
			Name:    "extremes",
			DRAM:    []scenario.DRAMSpec{{Name: "tiny", Technology: "lpddr4", CapacityGB: 1e-9}},
			Storage: []scenario.StorageSpec{{Name: "huge", Technology: "barracuda", CapacityGB: 1e22}},
			Usage:   scenario.UsageSpec{PowerW: 1e-9, AppHours: 0.001},
		},
		{ // zero power: operational exactly 0
			Name:  "zero-power",
			DRAM:  []scenario.DRAMSpec{{Name: "m", Technology: "30nm-lpddr3", CapacityGB: 8}},
			Usage: scenario.UsageSpec{PowerW: 0, AppHours: 24},
		},
	}
}

// invalids is a corpus of specs the scalar path rejects, one per distinct
// acterr field path.
func invalids() []*scenario.Spec {
	return []*scenario.Spec{
		{Name: "", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "no-components", Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-node", Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: 10, Node: "9999nm"}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-area", Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: -1, Node: "7nm"}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-abatement", Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: 10, Node: "7nm", Fab: &scenario.FabSpec{Abatement: 0.5}}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-dram", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "no-such-tech", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-dram-cap", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 0}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "bad-storage", Storage: []scenario.StorageSpec{{Name: "s", Technology: "floppy", CapacityGB: 1}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
		{Name: "neg-power", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: -1, AppHours: 1}},
		{Name: "no-hours", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1}},
		{Name: "pue-and-battery", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1, PUE: 1.5, BatteryEfficiency: 0.9}},
		{Name: "bad-pue", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1, PUE: 0.5}},
		{Name: "bad-battery", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1, BatteryEfficiency: 1.5}},
		{Name: "neg-lifetime", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}, LifetimeYears: -2},
		{Name: "hours-exceed-lifetime", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1e6}, LifetimeYears: 1},
		{Name: "bad-mode", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}, Transport: []scenario.TransportSpec{{Name: "t", MassKg: 1, DistanceKm: 1, Mode: "teleport"}}},
		{Name: "neg-mass", DRAM: []scenario.DRAMSpec{{Name: "m", Technology: "lpddr4", CapacityGB: 4}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}, Transport: []scenario.TransportSpec{{Name: "t", MassKg: -1, DistanceKm: 1, Mode: "air"}}},
		{Name: "nan-area", Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: math.NaN(), Node: "7nm"}}, Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1}},
	}
}

// scalarDoc is the oracle rendering used by every test: the untouched
// scalar path exactly as actd and the CLI run it.
func scalarDoc(t *testing.T, s *scenario.Spec) ([]byte, error) {
	t.Helper()
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func TestEvalByteIdentity(t *testing.T) {
	specs := variants()
	r := Eval(specs)
	defer r.Close()
	if r.Len() != len(specs) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(specs))
	}
	for i, s := range specs {
		want, wantErr := scalarDoc(t, s)
		if wantErr != nil {
			t.Fatalf("variant %d (%s): scalar path unexpectedly errored: %v", i, s.Name, wantErr)
		}
		if err := r.Err(i); err != nil {
			t.Fatalf("variant %d (%s): Eval errored: %v", i, s.Name, err)
		}
		if got := r.Doc(i); !bytes.Equal(got, want) {
			t.Errorf("variant %d (%s): document mismatch\ncolumnar:\n%s\nscalar:\n%s", i, s.Name, got, want)
		}
	}
}

func TestEvalErrorParity(t *testing.T) {
	specs := invalids()
	r := Eval(specs)
	defer r.Close()
	for i, s := range specs {
		_, wantErr := scalarDoc(t, s)
		gotErr := r.Err(i)
		switch {
		case wantErr == nil && gotErr == nil:
			// nan-area style specs may legally succeed on both paths.
			continue
		case wantErr == nil || gotErr == nil:
			t.Errorf("spec %d (%s): error mismatch: columnar=%v scalar=%v", i, s.Name, gotErr, wantErr)
			continue
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("spec %d (%s): error text mismatch\ncolumnar: %s\nscalar:   %s", i, s.Name, gotErr, wantErr)
		}
		if acterr.IsInvalid(wantErr) != acterr.IsInvalid(gotErr) {
			t.Errorf("spec %d (%s): invalid-classification mismatch", i, s.Name)
			continue
		}
		var gotInv, wantInv *acterr.InvalidSpecError
		if errors.As(wantErr, &wantInv) != errors.As(gotErr, &gotInv) {
			t.Errorf("spec %d (%s): typed-error mismatch", i, s.Name)
			continue
		}
		if wantInv != nil && gotInv.Field != wantInv.Field {
			t.Errorf("spec %d (%s): field path mismatch: columnar=%q scalar=%q", i, s.Name, gotInv.Field, wantInv.Field)
		}
	}
}

func TestEvalDegenerateBatches(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		r := Eval(nil)
		defer r.Close()
		if r.Len() != 0 {
			t.Fatalf("Len = %d, want 0", r.Len())
		}
		if i, err := r.FirstErr(); i != -1 || err != nil {
			t.Fatalf("FirstErr = %d, %v; want -1, nil", i, err)
		}
	})
	t.Run("single", func(t *testing.T) {
		s := scenario.Example()
		r := Eval([]*scenario.Spec{s})
		defer r.Close()
		want, _ := scalarDoc(t, s)
		if !bytes.Equal(r.Doc(0), want) {
			t.Fatalf("single-item document mismatch")
		}
	})
	t.Run("beyond-chunk", func(t *testing.T) {
		n := DefaultChunk + 37
		specs := make([]*scenario.Spec, n)
		base := variants()
		for i := range specs {
			specs[i] = base[i%len(base)]
		}
		r := Eval(specs)
		defer r.Close()
		for i, s := range specs {
			want, _ := scalarDoc(t, s)
			if !bytes.Equal(r.Doc(i), want) {
				t.Fatalf("item %d (%s) mismatch at chunk-straddling size %d", i, s.Name, n)
			}
		}
	})
	t.Run("mixed-valid-invalid", func(t *testing.T) {
		var specs []*scenario.Spec
		good, bad := variants(), invalids()
		for i := 0; i < len(good) || i < len(bad); i++ {
			if i < len(good) {
				specs = append(specs, good[i])
			}
			if i < len(bad) {
				specs = append(specs, bad[i])
			}
		}
		r := Eval(specs)
		defer r.Close()
		for i, s := range specs {
			want, wantErr := scalarDoc(t, s)
			if wantErr != nil {
				gotErr := r.Err(i)
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("item %d (%s): error mismatch: columnar=%v scalar=%v", i, s.Name, gotErr, wantErr)
				}
				continue
			}
			if !bytes.Equal(r.Doc(i), want) {
				t.Errorf("item %d (%s): document diverged in mixed batch", i, s.Name)
			}
		}
	})
}

func TestEmbodiedTotalsMatchScalar(t *testing.T) {
	specs := append(variants(), invalids()...)
	out := make([]float64, len(specs))
	firstErr := EmbodiedTotals(specs, out)
	var wantFirst error
	for i, s := range specs {
		g, err := scalarEmbodied(s)
		if err != nil {
			if wantFirst == nil {
				wantFirst = err
			}
			continue
		}
		got := out[i]
		if got != g && !(math.IsNaN(got) && math.IsNaN(g)) {
			t.Errorf("spec %d (%s): embodied total %v, scalar %v", i, s.Name, got, g)
		}
	}
	if (firstErr == nil) != (wantFirst == nil) {
		t.Fatalf("first error mismatch: columnar=%v scalar=%v", firstErr, wantFirst)
	}
	if firstErr != nil && firstErr.Error() != wantFirst.Error() {
		t.Fatalf("first error text mismatch:\ncolumnar: %s\nscalar:   %s", firstErr, wantFirst)
	}
}

// TestConcurrentBatchesSharePools stresses pool reuse across goroutines;
// run with -race it proves the pooled columns never alias live results.
func TestConcurrentBatchesSharePools(t *testing.T) {
	base := variants()
	want := make([][]byte, len(base))
	for i, s := range base {
		want[i], _ = scalarDoc(t, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				// Rotate the order per goroutine so batches differ.
				specs := make([]*scenario.Spec, len(base))
				exp := make([][]byte, len(base))
				for i := range base {
					j := (i + g + iter) % len(base)
					specs[i] = base[j]
					exp[i] = want[j]
				}
				r := Eval(specs)
				for i := range specs {
					if err := r.Err(i); err != nil {
						t.Errorf("goroutine %d iter %d item %d: %v", g, iter, i, err)
						continue
					}
					if !bytes.Equal(r.Doc(i), exp[i]) {
						t.Errorf("goroutine %d iter %d item %d: document corrupted by concurrent reuse", g, iter, i)
					}
				}
				r.Close()
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkColBatchEvalSweep is a 1-dim area sweep over copies of
// scenario.Example(): only the logic area varies, so most floats of each
// document repeat from item to item. BenchmarkColBatchEvalCorpus is the
// distinct-design shape. speedup_vs_baseline is its per-scenario speedup
// over PreColumnarColdNS (reported, not asserted).
func BenchmarkColBatchEvalSweep(b *testing.B) {
	const n = 512
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		s := scenario.Example()
		s.Logic[0].AreaMM2 = 50 + float64(i)*0.25
		specs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Eval(specs)
		if _, err := r.FirstErr(); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "scenarios/s")
	b.ReportMetric(PreColumnarColdNS*float64(b.N)*n/float64(b.Elapsed().Nanoseconds()), "speedup_vs_baseline")
}

func BenchmarkColBatchEval(b *testing.B) {
	const n = 512
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = scenario.Example()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Eval(specs)
		if _, err := r.FirstErr(); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "scenarios/s")
}

func BenchmarkColBatchScalarOracle(b *testing.B) {
	// The same work through the scalar path, for contrast with the
	// columnar benchmarks above (BENCH_6.json recorded both).
	const n = 512
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = scenario.Example()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := scalarEval(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "scenarios/s")
}

func BenchmarkColBatchEmbodiedTotals(b *testing.B) {
	const n = 512
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = scenario.Example()
	}
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EmbodiedTotals(specs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "devices/s")
}
