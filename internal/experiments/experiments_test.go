package experiments

import (
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table1", "table2", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

// TestDocsNameEveryArtifact holds EXPERIMENTS.md to the registry: the
// artifact ids it names are exactly IDs().
func TestDocsNameEveryArtifact(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, id := range regexp.MustCompile(`\b(?:fig|table|ext)[0-9]+\b`).FindAllString(string(doc), -1) {
		named[id] = true
	}
	var got []string
	for id := range named {
		got = append(got, id)
	}
	sort.Slice(got, func(i, j int) bool { return lessID(got[i], got[j]) })
	if want := IDs(); !slices.Equal(got, want) {
		t.Errorf("EXPERIMENTS.md names %v\nregistry has %v", got, want)
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	// Figures first (prefix "fig" < "table"), numeric within a prefix.
	var figs, tables []string
	for _, id := range ids {
		switch {
		case strings.HasPrefix(id, "fig"):
			figs = append(figs, id)
		case strings.HasPrefix(id, "table"):
			tables = append(tables, id)
		}
	}
	if len(figs) == 0 || len(tables) == 0 {
		t.Fatal("expected both figures and tables")
	}
	if ids[0] != "fig1" {
		t.Errorf("first id = %s, want fig1 (alphabetical prefix order)", ids[0])
	}
	if figs[len(figs)-1] != "fig17" {
		t.Errorf("last figure = %s, want fig17", figs[len(figs)-1])
	}
	if tables[0] != "table1" || tables[len(tables)-1] != "table12" {
		t.Errorf("table ordering wrong: %v", tables)
	}
	// fig10 sorts after fig9 (numeric, not lexicographic).
	idx := map[string]int{}
	for i, id := range ids {
		idx[id] = i
	}
	if idx["fig10"] < idx["fig9"] {
		t.Error("fig10 should sort after fig9")
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil || e.ID != "fig8" {
		t.Errorf("ByID(fig8) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("ByID(unknown): expected error")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	// Every registered experiment runs without error and produces at
	// least one non-empty, renderable table.
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tab.Title)
				}
				out, err := tab.ASCII()
				if err != nil {
					t.Errorf("%s: table %q does not render: %v", e.ID, tab.Title, err)
				}
				if len(out) == 0 {
					t.Errorf("%s: table %q renders empty", e.ID, tab.Title)
				}
				if _, err := tab.CSV(); err != nil {
					t.Errorf("%s: table %q CSV: %v", e.ID, tab.Title, err)
				}
				if _, err := tab.Markdown(); err != nil {
					t.Errorf("%s: table %q Markdown: %v", e.ID, tab.Title, err)
				}
			}
		})
	}
}

func TestFigure8WinnersMatchPaper(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The winners table pairs our winner with the paper's; whenever the
	// paper column is non-empty the two must agree.
	winners := tables[1]
	for _, row := range winners.Rows {
		if len(row) >= 3 && row[2] != "" && row[1] != row[2] {
			t.Errorf("fig8 %s winner %q disagrees with paper %q", row[0], row[1], row[2])
		}
	}
}

func TestFigure12OptimaMatchPaper(t *testing.T) {
	e, err := ByID("fig12")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	optima := tables[1]
	for _, row := range optima.Rows {
		if len(row) >= 3 && row[2] != "" && row[1] != row[2] {
			t.Errorf("fig12 %s optimum %q disagrees with paper %q", row[0], row[1], row[2])
		}
	}
}
