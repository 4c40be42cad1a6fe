package act_test

// Ablation benchmarks for the model's design choices: each sweeps one
// modeling decision and reports the resulting embodied-carbon deltas as
// custom metrics, so `go test -bench=Ablation` documents how sensitive the
// results are to the paper's defaults.

import (
	"testing"

	"act/internal/fab"
	"act/internal/intensity"
	"act/internal/units"
)

// BenchmarkAblationAbatement sweeps gaseous abatement from the 95% to the
// 99% bound (Table 7's band) at 3 nm, where the gas term is largest.
func BenchmarkAblationAbatement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range []float64{0.95, 0.97, 0.99} {
			f, err := fab.New(fab.Node3, fab.WithAbatement(a))
			if err != nil {
				b.Fatal(err)
			}
			cpa, err := f.CPA(units.CM2(1))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(cpa.GramsPerCM2(), "cpa-g-per-cm2-at-"+percent(a))
			}
		}
	}
}

func percent(a float64) string {
	switch a {
	case 0.95:
		return "95"
	case 0.97:
		return "97"
	case 0.99:
		return "99"
	}
	return "x"
}

// BenchmarkAblationFabIntensity sweeps CIfab across the Figure 6 scenarios
// at 5 nm.
func BenchmarkAblationFabIntensity(b *testing.B) {
	scenarios := []struct {
		name string
		ci   units.CarbonIntensity
	}{
		{"solar", intensity.Renewable},
		{"default", intensity.DefaultFab()},
		{"taiwan", intensity.TaiwanGrid},
		{"coal", intensity.CoalGrid},
	}
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			f, err := fab.New(fab.Node5, fab.WithCarbonIntensity(s.ci))
			if err != nil {
				b.Fatal(err)
			}
			cpa, err := f.CPA(units.CM2(1))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(cpa.GramsPerCM2(), s.name+"-cpa")
			}
		}
	}
}
