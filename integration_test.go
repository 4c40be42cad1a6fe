package act_test

// Integration tests exercising cross-package flows end-to-end: the model
// composed through the public facade, the experiment registry rendered
// through every report format, and the example programs executed as real
// processes.

import (
	"os/exec"
	"strings"
	"testing"
	"time"

	"act"
	"act/internal/dse"
	"act/internal/experiments"
	"act/internal/soc"
)

// TestEndToEndPhoneStory walks the paper's core narrative through the
// public API: build a modern phone, profile realistic usage, and observe
// the Figure 1 regime — embodied carbon dominating the lifetime footprint.
func TestEndToEndPhoneStory(t *testing.T) {
	f, err := act.NewFab(act.Node7)
	if err != nil {
		t.Fatal(err)
	}
	socDie, err := act.NewLogic("SoC", act.MM2(98.5), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	f28, err := act.NewFab(act.Node28)
	if err != nil {
		t.Fatal(err)
	}
	board, err := act.NewLogic("board ICs", act.MM2(30), f28, 20)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := act.NewDRAM("RAM", act.LPDDR4, act.Gigabytes(4))
	if err != nil {
		t.Fatal(err)
	}
	flash, err := act.NewStorage("flash", act.NANDV3TLC, act.Gigabytes(64))
	if err != nil {
		t.Fatal(err)
	}
	phone, err := act.NewDevice("phone")
	if err != nil {
		t.Fatal(err)
	}
	phone.AddLogic(socDie).AddLogic(board).AddDRAM(ram).AddStorage(flash)

	// Realistic duty cycle over a 3-year life on the US grid: 3 h a day
	// at 3 W and the other 21 h idle at 30 mW, an average of 401.25 mW.
	u := act.UsageFromPower(act.Milliwatts(401.25), act.YearsDuration(3), act.USGrid)
	a, err := act.LifetimeFootprint(phone, u, act.YearsDuration(3))
	if err != nil {
		t.Fatal(err)
	}
	embodiedShare := a.EmbodiedTotal.Grams() / a.Total().Grams()
	if embodiedShare < 0.6 {
		t.Errorf("modern phone embodied share = %.0f%%, expected manufacturing-dominated (Figure 1)",
			embodiedShare*100)
	}
}

// TestSoCThroughDSELayer runs the catalog through the generic DSE layer:
// the Pareto frontier over embodied carbon and delay contains the
// embodied-optimal and performance-optimal chips.
func TestSoCThroughDSELayer(t *testing.T) {
	cands, err := soc.Candidates(soc.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	front, err := dse.ParetoFrontier(cands, []dse.Objective{dse.Embodied, dse.Delay})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range front {
		names[c.Name] = true
	}
	if !names["Snapdragon 835"] {
		t.Error("frontier missing the embodied-optimal Snapdragon 835")
	}
	if !names["Snapdragon 865"] {
		t.Error("frontier missing the fastest chip (Snapdragon 865)")
	}
	if len(front) >= len(cands) {
		t.Errorf("frontier (%d) should prune dominated chips (%d total)", len(front), len(cands))
	}
}

// TestExperimentsRenderAllFormats renders every artifact through every
// report format — the path actpaper exposes.
func TestExperimentsRenderAllFormats(t *testing.T) {
	for _, e := range experiments.All() {
		tables, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tab := range tables {
			if _, err := tab.ASCII(); err != nil {
				t.Errorf("%s ASCII: %v", e.ID, err)
			}
			if _, err := tab.CSV(); err != nil {
				t.Errorf("%s CSV: %v", e.ID, err)
			}
			if _, err := tab.Markdown(); err != nil {
				t.Errorf("%s Markdown: %v", e.ID, err)
			}
		}
	}
}

// TestExamplesRun executes every example program as a subprocess.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example subprocesses in -short mode")
	}
	examples := []struct {
		dir  string
		want string // a string the output must contain
	}{
		{"quickstart", "embodied breakdown"},
		{"mobile-soc-designspace", "Kirin 980"},
		{"accelerator-dse", "Jevons paradox"},
		{"ssd-second-life", "second-life optimum: 34%"},
		{"datacenter-server", "Dell R740"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			t.Parallel()
			ctxTimeout := 3 * time.Minute
			cmd := exec.Command("go", "run", "./examples/"+ex.dir)
			cmd.Dir = "."
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(ctxTimeout):
				_ = cmd.Process.Kill()
				t.Fatalf("example %s timed out", ex.dir)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex.dir, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("example %s output missing %q", ex.dir, ex.want)
			}
		})
	}
}
