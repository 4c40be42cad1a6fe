// Command actsweep runs the library's design-space sweeps interactively:
// the NVDLA-style accelerator MAC sweep, the SSD over-provisioning sweep,
// the device-replacement lifetime sweep, and the mobile SoC catalog.
//
// Usage:
//
//	actsweep accel [-qos 30] [-budget-mm2 2]
//	actsweep ssd [-mission-years 2]
//	actsweep lifetime [-horizon 10] [-gain 1.21]
//	actsweep soc
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"act/internal/accel"
	"act/internal/dse"
	"act/internal/metrics"
	"act/internal/replace"
	"act/internal/report"
	"act/internal/soc"
	"act/internal/ssdlife"
	"act/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "actsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: actsweep <accel|ssd|lifetime|soc> [flags]")
	}
	switch args[0] {
	case "accel":
		return runAccel(args[1:], out)
	case "ssd":
		return runSSD(args[1:], out)
	case "lifetime":
		return runLifetime(args[1:], out)
	case "soc":
		return runSoC(out)
	}
	return fmt.Errorf("unknown sweep %q (want accel, ssd, lifetime or soc)", args[0])
}

func printTable(out io.Writer, t *report.Table) error {
	s, err := t.ASCII()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, s)
	return nil
}

func runAccel(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("accel", flag.ContinueOnError)
	qos := fs.Float64("qos", 30, "QoS throughput target in FPS")
	budget := fs.Float64("budget-mm2", 0, "area budget in mm² (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := accel.NewModel()
	if err != nil {
		return err
	}
	for _, p := range accel.Processes() {
		sweep, err := m.Sweep(p)
		if err != nil {
			return err
		}
		// Fan the model evaluations out across the worker pool; the
		// candidates come back in sweep order, identical to a sequential
		// run.
		cands, err := accel.CandidatesParallel(context.Background(), 0, sweep)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("NVDLA-style NPU sweep, %s", p),
			"MACs", "area (mm²)", "FPS", "energy/frame (mJ)", "embodied (g CO2)")
		for i, d := range sweep {
			c := cands[i]
			t.AddRow(report.Num(float64(d.MACs)), report.Num(c.Area.MM2()),
				report.Num(d.FPS()), report.Num(c.Energy.Millijoules()),
				report.Num(c.Embodied.Grams()))
		}
		if err := printTable(out, t); err != nil {
			return err
		}
	}

	opt := report.NewTable("Optima (16nm)", "target", "MACs")
	if d, err := m.QoSOptimal(accel.Process16nm, *qos); err == nil {
		opt.AddRow(fmt.Sprintf("carbon-min @ %.0f FPS", *qos), report.Num(float64(d.MACs)))
	} else {
		opt.AddNote(fmt.Sprintf("QoS %.0f FPS infeasible: %v", *qos, err))
	}
	for _, metric := range metrics.All() {
		d, err := m.MetricOptimal(accel.Process16nm, metric)
		if err != nil {
			return err
		}
		opt.AddRow(string(metric), report.Num(float64(d.MACs)))
	}
	if *budget > 0 {
		for _, p := range accel.Processes() {
			d, err := m.BudgetOptimal(p, units.MM2(*budget))
			if err != nil {
				return err
			}
			opt.AddRow(fmt.Sprintf("max-perf ≤ %.1f mm² (%s)", *budget, p), report.Num(float64(d.MACs)))
		}
	}
	return printTable(out, opt)
}

func runSSD(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssd", flag.ContinueOnError)
	mission := fs.Float64("mission-years", 2, "storage mission duration in years")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d := ssdlife.DefaultDrive()
	pts, err := d.Sweep(ssdlife.DefaultGrid(), *mission)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("SSD over-provisioning sweep (%.1f-year mission)", *mission),
		"over-provisioning", "write amplification", "lifetime (years)", "drives needed", "effective embodied (g)")
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.0f%%", p.PF*100), report.Num(p.WA),
			report.Num(p.LifetimeYears), report.Num(float64(p.Replacements)),
			report.Num(p.EffectiveEmbodied.Grams()))
	}
	best, err := d.Optimal(ssdlife.DefaultGrid(), *mission)
	if err != nil {
		return err
	}
	t.AddNote(fmt.Sprintf("optimal over-provisioning: %.0f%%", best.PF*100))
	return printTable(out, t)
}

func runLifetime(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lifetime", flag.ContinueOnError)
	horizon := fs.Float64("horizon", 10, "study horizon in years")
	gain := fs.Float64("gain", 1.21, "annual energy-efficiency improvement factor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := replace.DefaultScenario()
	s.HorizonYears = *horizon
	s.AnnualGain = *gain
	sweep, err := s.Sweep()
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Replacement-lifetime sweep (%.0f-year horizon, %.2fx annual gain)", *horizon, *gain),
		"lifetime (years)", "devices", "embodied (kg)", "operational (kg)", "total (kg)")
	for _, r := range sweep {
		t.AddRow(report.Num(r.LifetimeYears), report.Num(float64(r.Devices)),
			report.Num(r.Embodied.Kilograms()), report.Num(r.Operational.Kilograms()),
			report.Num(r.Total().Kilograms()))
	}
	opt, err := s.Optimal()
	if err != nil {
		return err
	}
	t.AddNote(fmt.Sprintf("optimal lifetime: %v years", opt.LifetimeYears))
	return printTable(out, t)
}

func runSoC(out io.Writer) error {
	t := report.NewTable("Mobile SoC catalog",
		"SoC", "family", "year", "node (nm)", "die (mm²)", "TDP (W)", "score", "embodied (kg)")
	for _, s := range soc.Catalog() {
		e, err := s.Embodied()
		if err != nil {
			return err
		}
		t.AddRow(s.Name, s.Family, report.Num(float64(s.Year)), report.Num(s.NodeNM),
			report.Num(s.Die.MM2()), report.Num(s.TDP.Watts()),
			report.Num(s.BaseScore), report.Num(e.Kilograms()))
	}
	if err := printTable(out, t); err != nil {
		return err
	}

	cands, err := soc.Candidates(soc.Catalog())
	if err != nil {
		return err
	}
	// WinnersOrdered walks metrics.All() order, so the table is stable
	// across runs (the map-keyed dse.Winners is not).
	winners, err := dse.WinnersOrdered(cands)
	if err != nil {
		return err
	}
	w := report.NewTable("Metric winners", "metric", "SoC")
	for _, win := range winners {
		w.AddRow(string(win.Metric), win.Name)
	}
	return printTable(out, w)
}
