package act_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per artifact — run `go test -bench=.`) and
// benchmarks the synthetic workload kernels that feed the model's software
// profiles. Each artifact benchmark reports headline shape numbers as
// custom metrics so a -bench run doubles as a reproduction summary; the
// full rows print once under -v via b.Log.

import (
	"time"

	"testing"

	"act/internal/accel"
	"act/internal/experiments"
	"act/internal/metrics"
	"act/internal/provision"
	"act/internal/replace"
	"act/internal/soc"
	"act/internal/ssdlife"
	"act/internal/workloads"
)

// benchExperiment runs one registered artifact per iteration and logs the
// rendered tables once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var logged bool
	for i := 0; i < b.N; i++ {
		tables, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			for _, t := range tables {
				out, err := t.ASCII()
				if err != nil {
					b.Fatal(err)
				}
				b.Log("\n" + out)
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)   { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)   { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)   { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B)  { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B)  { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B)  { benchExperiment(b, "table12") }

// BenchmarkFigure8 regenerates the SoC design space and reports the fleet
// efficiency trend alongside.
func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, "fig8")
	cands, err := soc.Candidates(soc.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	best, err := metrics.Best(metrics.CEP, cands)
	if err != nil {
		b.Fatal(err)
	}
	if best.Candidate.Name != "Kirin 980" {
		b.Fatalf("CEP winner = %s, want Kirin 980", best.Candidate.Name)
	}
}

// BenchmarkTable4 regenerates the provisioning table and reports the
// break-even utilizations as metrics.
func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4")
	f, err := provision.DefaultFab()
	if err != nil {
		b.Fatal(err)
	}
	dsp, err := provision.BreakEvenUtilization(provision.DSP, f, 300, yearsDuration(3))
	if err != nil {
		b.Fatal(err)
	}
	gpu, err := provision.BreakEvenUtilization(provision.GPU, f, 300, yearsDuration(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(dsp*100, "dsp-breakeven-%")
	b.ReportMetric(gpu*100, "gpu-breakeven-%")
}

// BenchmarkFigure12 reports the carbon-metric reduction available by
// right-sizing the accelerator.
func BenchmarkFigure12(b *testing.B) {
	benchExperiment(b, "fig12")
	m, err := accel.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	most, err := m.Design(2048, accel.Process16nm)
	if err != nil {
		b.Fatal(err)
	}
	mostC, err := most.Candidate()
	if err != nil {
		b.Fatal(err)
	}
	best, err := m.MetricOptimal(accel.Process16nm, metrics.C2EP)
	if err != nil {
		b.Fatal(err)
	}
	bestC, err := best.Candidate()
	if err != nil {
		b.Fatal(err)
	}
	vMost, err := metrics.Eval(metrics.C2EP, mostC)
	if err != nil {
		b.Fatal(err)
	}
	vBest, err := metrics.Eval(metrics.C2EP, bestC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(vMost/vBest, "c2ep-reduction-x")
}

// BenchmarkFigure13 reports the QoS penalty ratios and the Jevons increase.
func BenchmarkFigure13(b *testing.B) {
	benchExperiment(b, "fig13")
	m, err := accel.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	qos, err := m.QoSOptimal(accel.Process16nm, 30)
	if err != nil {
		b.Fatal(err)
	}
	qosE, err := qos.Embodied()
	if err != nil {
		b.Fatal(err)
	}
	perf, err := m.PerfOptimal(accel.Process16nm)
	if err != nil {
		b.Fatal(err)
	}
	perfE, err := perf.Embodied()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(perfE.Grams()/qosE.Grams(), "perf-opt-penalty-x")
}

// BenchmarkFigure14 reports the optimal replacement lifetime.
func BenchmarkFigure14(b *testing.B) {
	benchExperiment(b, "fig14")
	opt, err := replace.DefaultScenario().Optimal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(opt.LifetimeYears, "optimal-lifetime-years")
}

// BenchmarkFigure15 reports the first- and second-life optima.
func BenchmarkFigure15(b *testing.B) {
	benchExperiment(b, "fig15")
	d := ssdlife.DefaultDrive()
	first, err := d.Optimal(ssdlife.DefaultGrid(), 2)
	if err != nil {
		b.Fatal(err)
	}
	second, err := d.Optimal(ssdlife.DefaultGrid(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(first.PF*100, "first-life-op-%")
	b.ReportMetric(second.PF*100, "second-life-op-%")
}

// yearsDuration converts Julian years to a time.Duration.
func yearsDuration(y float64) time.Duration {
	return time.Duration(y * 365.25 * 24 * float64(time.Hour))
}

// Benchmarks for the synthetic workload kernels that supply the model's
// software profiles (the T parameter).
func benchKernel(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	k, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = k.Run()
	}
	_ = sink
}

func BenchmarkKernelHTMLRender(b *testing.B)    { benchKernel(b, "html5-rendering") }
func BenchmarkKernelAES(b *testing.B)           { benchKernel(b, "aes-encryption") }
func BenchmarkKernelTextCompress(b *testing.B)  { benchKernel(b, "text-compression") }
func BenchmarkKernelImageCompress(b *testing.B) { benchKernel(b, "image-compression") }
func BenchmarkKernelFaceDetect(b *testing.B)    { benchKernel(b, "face-detection") }
func BenchmarkKernelSpeechRecog(b *testing.B)   { benchKernel(b, "speech-recognition") }
func BenchmarkKernelAIClassify(b *testing.B)    { benchKernel(b, "ai-image-classification") }
func BenchmarkKernelFIR(b *testing.B)           { benchKernel(b, "fir-filter") }
