// Command act evaluates the carbon footprint of a JSON-described device:
// operational emissions, total embodied emissions, the lifetime-amortized
// share, and a per-IC breakdown.
//
// Usage:
//
//	act -scenario device.json [-format ascii|csv|md|json]
//	act -example                 # print a sample scenario
//	cat device.json | act        # read the scenario from stdin
//	act batch -file devices.json  # JSON array in, array of results out
//	act fleet -file fleet.ndjson [-top K] [-by region|node|class]
//	act export -file fleet.ndjson [-at RFC3339]  # one telemetry snapshot, line protocol
//	act conform [-seed S] [-n N]  # cross-surface conformance harness
//	act script -file prog.act [-max-steps N] [-max-bytes N] [-timeout 5s]
//
// The json format emits the same result document actd serves from
// POST /v1/footprint, byte for byte, so pipelines can swap between the CLI
// and the service without re-parsing. The fleet subcommand aggregates an
// NDJSON fleet file the same way: its output matches actd's
// GET /v1/fleet/summary body byte for byte.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"act/internal/acterr"
	"act/internal/colbatch"
	"act/internal/core"
	"act/internal/report"
	"act/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		if err := runFleet(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			var inv *acterr.InvalidSpecError
			if errors.As(err, &inv) && inv.Field != "" {
				fmt.Fprintf(os.Stderr, "act: fleet field %s: %s\n", inv.Field, inv.Message())
			} else {
				fmt.Fprintln(os.Stderr, "act:", err)
			}
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "batch" {
		if err := runBatch(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			var inv *acterr.InvalidSpecError
			if errors.As(err, &inv) && inv.Field != "" {
				fmt.Fprintf(os.Stderr, "act: scenario field %s: %s\n", inv.Field, inv.Message())
			} else {
				fmt.Fprintln(os.Stderr, "act:", err)
			}
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "export" {
		if err := runExport(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			var inv *acterr.InvalidSpecError
			if errors.As(err, &inv) && inv.Field != "" {
				fmt.Fprintf(os.Stderr, "act: fleet field %s: %s\n", inv.Field, inv.Message())
			} else {
				fmt.Fprintln(os.Stderr, "act:", err)
			}
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "conform" {
		if err := runConform(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "act:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "script" {
		if err := runScript(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "act:", err)
			os.Exit(1)
		}
		return
	}
	var (
		path    = flag.String("scenario", "", "path to a JSON scenario (default: stdin)")
		format  = flag.String("format", "ascii", "output format: ascii, csv, md or json")
		example = flag.Bool("example", false, "print a sample scenario and exit")
	)
	flag.Parse()

	if err := run(*path, *format, *example, os.Stdin, os.Stdout); err != nil {
		var inv *acterr.InvalidSpecError
		if errors.As(err, &inv) && inv.Field != "" {
			// Point at the offending scenario field.
			fmt.Fprintf(os.Stderr, "act: scenario field %s: %s\n", inv.Field, inv.Message())
		} else {
			fmt.Fprintln(os.Stderr, "act:", err)
		}
		os.Exit(1)
	}
}

func run(path, format string, example bool, stdin io.Reader, stdout io.Writer) error {
	if example {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(scenario.Example())
	}

	in := stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	spec, err := scenario.Parse(in)
	if err != nil {
		return err
	}
	if format == "json" {
		// A batch of one through the columnar engine: the document actd
		// serves for the same scenario.
		res := colbatch.Eval([]*scenario.Spec{spec})
		defer res.Close()
		if err := res.Err(0); err != nil {
			return err
		}
		_, err := stdout.Write(res.Doc(0))
		return err
	}
	a, err := spec.Assess()
	if err != nil {
		return err
	}
	tables := assessmentTables(a)
	if spec.HasLifeCycle() {
		r, err := spec.LifeCycle()
		if err != nil {
			return err
		}
		tables = append(tables, lifeCycleTable(r))
	}
	for _, t := range tables {
		out, err := render(t, format)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}

// lifeCycleTable formats the four-phase product report.
func lifeCycleTable(r core.PhaseReport) *report.Table {
	t := report.NewTable("Life-cycle phases (whole lifetime)", "phase", "emissions", "share")
	for _, p := range core.Phases() {
		t.AddRow(string(p), r.Phases[p].String(), fmt.Sprintf("%.1f%%", r.Share(p)*100))
	}
	t.AddRow("TOTAL", r.Total().String(), "100%")
	return t
}

// assessmentTables formats an assessment as report tables.
func assessmentTables(a core.Assessment) []*report.Table {
	summary := report.NewTable(fmt.Sprintf("Carbon footprint: %s", a.Device),
		"quantity", "value")
	summary.AddRow("application time", a.AppTime.String())
	summary.AddRow("lifetime", a.Lifetime.String())
	summary.AddRow("operational (OPCF)", a.Operational.String())
	summary.AddRow("embodied total (ECF)", a.EmbodiedTotal.String())
	summary.AddRow("embodied share (T/LT x ECF)", a.EmbodiedShare.String())
	summary.AddRow("total (CF)", a.Total().String())

	breakdown := report.NewTable("Embodied breakdown", "component", "kind", "embodied", "share")
	for _, item := range a.Breakdown.Items {
		breakdown.AddRow(item.Name, string(item.Kind), item.Embodied.String(),
			fmt.Sprintf("%.1f%%", item.Embodied.Grams()/a.EmbodiedTotal.Grams()*100))
	}
	return []*report.Table{summary, breakdown}
}

func render(t *report.Table, format string) (string, error) {
	return t.Render(report.Format(format))
}
