// Package experiments regenerates every table and figure of the paper's
// evaluation from this library's models. Each experiment is registered
// under the paper's artifact id (e.g. "fig8", "table4") and produces
// report tables whose rows mirror what the paper presents; EXPERIMENTS.md
// records the paper-vs-measured comparison for each.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"act/internal/parsweep"
	"act/internal/report"
)

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the artifact id: "fig1".."fig17", "table1".."table12".
	ID string
	// Title is the artifact's one-line description.
	Title string
	// Run produces the artifact's tables.
	Run func() ([]*report.Table, error)
}

// registry is populated by the init functions of the sibling files.
var registry = map[string]Experiment{}

// register adds an experiment; duplicate ids are a programming error.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by id (figures first, then tables,
// each numerically).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// Result pairs an experiment with the tables one run produced.
type Result struct {
	Experiment Experiment
	Tables     []*report.Table
}

// RunAll runs every registered experiment across a bounded worker pool and
// returns the results in All() order, so output is deterministic no matter
// how the work was scheduled. The first experiment error cancels the
// remaining work and is returned, tagged with the artifact id. workers ≤ 0
// selects GOMAXPROCS.
func RunAll(ctx context.Context, workers int) ([]Result, error) {
	all := All()
	tables, err := parsweep.MapErrCtx(ctx, workers, all, func(_ context.Context, _ int, e Experiment) ([]*report.Table, error) {
		ts, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return ts, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(all))
	for i, e := range all {
		out[i] = Result{Experiment: e, Tables: tables[i]}
	}
	return out, nil
}

// ByID returns one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs returns the sorted registry keys.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i], out[j]) })
	return out
}

// lessID orders "figN" before "tableN" and both numerically.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitID(id string) (prefix string, n int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	for _, c := range id[i:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return prefix, n
}
