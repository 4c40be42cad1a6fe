package script

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"act/internal/dse"
	"act/internal/metrics"
)

// scriptNum spells v as a script expression; the non-finite values go
// through num(), since the language has no literal for them.
func scriptNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return `num("NaN")`
	case math.IsInf(v, 1):
		return `num("Inf")`
	case math.IsInf(v, -1):
		return `num("-Inf")`
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// paretoIndices runs pareto over vals (one map per row, fields f0..fk-1
// plus its row index i) and returns the surviving row indices.
func paretoIndices(t *testing.T, vals [][]float64) []int {
	t.Helper()
	var src strings.Builder
	src.WriteString("let pts = [")
	for i, row := range vals {
		fmt.Fprintf(&src, "\n  {\"i\": %d", i)
		for j, v := range row {
			fmt.Fprintf(&src, ", \"f%d\": %s", j, scriptNum(v))
		}
		src.WriteString("},")
	}
	src.WriteString("\n]\nlet out = []\nfor p in pareto(pts, [")
	for j := range vals[0] {
		if j > 0 {
			src.WriteString(", ")
		}
		fmt.Fprintf(&src, "\"f%d\"", j)
	}
	src.WriteString("]) { out = append(out, p.i) }\nout")
	res, err := Eval(context.Background(), src.String(), Options{Budget: Budget{MaxSteps: -1}})
	if err != nil {
		t.Fatalf("%v\n%s", err, src.String())
	}
	var got []int
	for _, v := range res.Value.(*List).Elems {
		got = append(got, int(v.(float64)))
	}
	return got
}

// frontierIndices is the same question put to dse.ParetoFrontier: one
// candidate per row, one objective per column. A single column is paired
// with a constant objective, which leaves dominance on that column alone.
func frontierIndices(t *testing.T, vals [][]float64) []int {
	t.Helper()
	cands := make([]metrics.Candidate, len(vals))
	for i := range vals {
		cands[i] = metrics.Candidate{Name: strconv.Itoa(i)}
	}
	row := func(c metrics.Candidate) []float64 {
		i, _ := strconv.Atoi(c.Name)
		return vals[i]
	}
	var objs []dse.Objective
	for j := range vals[0] {
		objs = append(objs, dse.Objective{Name: fmt.Sprintf("f%d", j),
			Eval: func(c metrics.Candidate) float64 { return row(c)[j] }})
	}
	if len(objs) == 1 {
		objs = append(objs, dse.Objective{Name: "zero", Eval: func(metrics.Candidate) float64 { return 0 }})
	}
	front, err := dse.ParetoFrontier(cands, objs)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, c := range front {
		i, _ := strconv.Atoi(c.Name)
		got = append(got, i)
	}
	return got
}

// TestParetoMatchesDSE: on seeded point sets with 1, 2 and 3 fields drawn
// from a coarse grid (ties and duplicate points are common) and salted
// with ±Inf, the script's pareto() keeps exactly the rows
// dse.ParetoFrontier keeps, in input order.
func TestParetoMatchesDSE(t *testing.T) {
	seed := uint64(2022)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for _, k := range []int{1, 2, 3} {
		for _, n := range []int{1, 2, 9, 40} {
			vals := make([][]float64, n)
			for i := range vals {
				vals[i] = make([]float64, k)
				for j := range vals[i] {
					switch r := next(); {
					case r < 0.05:
						vals[i][j] = math.Inf(1)
					case r < 0.1:
						vals[i][j] = math.Inf(-1)
					default:
						vals[i][j] = float64(int(next() * 4))
					}
				}
			}
			got, want := paretoIndices(t, vals), frontierIndices(t, vals)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("k=%d n=%d: pareto kept %v, dse.ParetoFrontier %v\npoints %v", k, n, got, want, vals)
			}
		}
	}
}

// TestParetoNaNReadsAsInf: a NaN field reads as +Inf, as in dse, so the
// NaN point no longer dominates a real one and both points survive.
func TestParetoNaNReadsAsInf(t *testing.T) {
	out, err := Eval(context.Background(),
		`len(pareto([{"a": num("NaN"), "b": 0}, {"a": 1, "b": 1}], ["a", "b"]))`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 2.0 {
		t.Fatalf("pareto kept %v points, want 2", out.Value)
	}
}

// TestParetoStepsPinned pins the step count of a pareto program: the
// n²·fields/4 charge is part of the budget contract, whichever frontier
// algorithm runs under it.
func TestParetoStepsPinned(t *testing.T) {
	src := `let pts = []
for i in range(40) { pts = append(pts, {"a": i % 7, "b": 40 - i, "c": i % 3}) }
let two = pareto(pts, ["a", "b"])
let three = pareto(pts, ["a", "b", "c"])
len(two) + len(three)`
	out, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps != 2669 {
		t.Fatalf("steps = %d, want 2669", out.Steps)
	}
}
