// Package dse provides the design-space-exploration machinery ACT's case
// studies share: lower-is-better objectives over candidate designs, Pareto
// frontiers, constrained minimization (the QoS- and budget-driven
// optimizations of Section 7), and sweep-grid helpers.
package dse

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"act/internal/metrics"
)

// Objective extracts a lower-is-better scalar from a candidate.
type Objective struct {
	Name string
	Eval func(metrics.Candidate) float64
}

// Built-in objectives over the candidate axes.
var (
	Embodied = Objective{"embodied", func(c metrics.Candidate) float64 { return c.Embodied.Grams() }}
	Energy   = Objective{"energy", func(c metrics.Candidate) float64 { return c.Energy.Joules() }}
	Delay    = Objective{"delay", func(c metrics.Candidate) float64 { return c.Delay.Seconds() }}
	Area     = Objective{"area", func(c metrics.Candidate) float64 { return c.Area.MM2() }}
)

// MetricObjective wraps a Table 2 metric as an objective.
func MetricObjective(m metrics.Metric) Objective {
	return Objective{string(m), func(c metrics.Candidate) float64 {
		v, err := metrics.Eval(m, c)
		if err != nil {
			return math.Inf(1) // invalid candidates lose every comparison
		}
		return v
	}}
}

// Dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func Dominates(a, b metrics.Candidate, objectives []Objective) bool {
	strictly := false
	for _, o := range objectives {
		va, vb := o.Eval(a), o.Eval(b)
		if va > vb {
			return false
		}
		if va < vb {
			strictly = true
		}
	}
	return strictly
}

// saneEval evaluates an objective, coercing NaN to +Inf so an undefined
// value always loses comparisons instead of silently surviving them (every
// `<` against NaN is false).
func saneEval(o Objective, c metrics.Candidate) float64 {
	v := o.Eval(c)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// evalMatrix computes the n×k objective matrix with exactly one Eval per
// (candidate, objective) pair. All downstream dominance work runs on this
// matrix, so model evaluations stay n·k even though dominance checking is
// O(n²) in the worst case.
func evalMatrix(cands []metrics.Candidate, objectives []Objective) [][]float64 {
	vals := make([][]float64, len(cands))
	for i, c := range cands {
		row := make([]float64, len(objectives))
		for j, o := range objectives {
			row[j] = o.Eval(c)
		}
		vals[i] = row
	}
	return vals
}

// ParetoFrontier returns the non-dominated candidates under the given
// objectives, preserving input order. Duplicate points (equal on all
// objectives) are all retained: none dominates the other. NaN objective
// values are treated as +Inf, so they lose like any other invalid point.
//
// Each objective is evaluated exactly once per candidate; NonDominated
// then reduces the matrix.
func ParetoFrontier(cands []metrics.Candidate, objectives []Objective) ([]metrics.Candidate, error) {
	return ParetoFrontierCtx(context.Background(), cands, objectives)
}

// ParetoFrontierCtx is ParetoFrontier with cancellation: a done ctx stops
// the dominance scan between candidates and returns ctx.Err(). This is the
// entry point actd's sweep handler uses, so a request whose deadline
// lapses (504) releases the frontier workers instead of letting an O(n²)
// scan run to completion for nobody.
func ParetoFrontierCtx(ctx context.Context, cands []metrics.Candidate, objectives []Objective) ([]metrics.Candidate, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("dse: no candidates")
	}
	if len(objectives) < 2 {
		return nil, fmt.Errorf("dse: a Pareto frontier needs at least 2 objectives, got %d", len(objectives))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keep, err := NonDominated(ctx, evalMatrix(cands, objectives))
	if err != nil {
		return nil, err
	}
	var out []metrics.Candidate
	for i, k := range keep {
		if k {
			out = append(out, cands[i])
		}
	}
	return out, nil
}

// NonDominated marks the non-dominated rows of an n×k matrix, lower being
// better in every column: keep[i] is false only when another row is at
// least as good in every column and strictly better in one, so duplicate
// rows all survive. NaN entries read as +Inf (they are rewritten in place)
// and lose every comparison instead of silently surviving them. Two
// columns take pareto2D's O(n log n) sweep; any other width takes
// sortFilter, which stops between rows once ctx is done. It is the
// frontier core of ParetoFrontierCtx and of the script interpreter's
// pareto().
func NonDominated(ctx context.Context, vals [][]float64) ([]bool, error) {
	for _, row := range vals {
		for j, v := range row {
			if math.IsNaN(v) {
				row[j] = math.Inf(1)
			}
		}
	}
	if len(vals) > 0 && len(vals[0]) == 2 {
		return pareto2D(vals), nil
	}
	return sortFilter(ctx, vals)
}

// pareto2D marks the non-dominated rows of an n×2 matrix in O(n log n):
// sort by (x asc, y asc), then a point survives iff its y is minimal within
// its x group and strictly below the best y of every strictly-smaller x.
func pareto2D(vals [][]float64) []bool {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if vals[ia][0] != vals[ib][0] {
			return vals[ia][0] < vals[ib][0]
		}
		return vals[ia][1] < vals[ib][1]
	})
	keep := make([]bool, n)
	bestPrev := math.Inf(1) // min y over all strictly-smaller x values
	hasPrev := false
	for i := 0; i < n; {
		x := vals[idx[i]][0]
		groupMin := vals[idx[i]][1] // group is y-sorted, first entry is min
		j := i
		for ; j < n && vals[idx[j]][0] == x; j++ {
			y := vals[idx[j]][1]
			if y == groupMin && (!hasPrev || y < bestPrev) {
				keep[idx[j]] = true
			}
		}
		if !hasPrev || groupMin < bestPrev {
			bestPrev, hasPrev = groupMin, true
		}
		i = j
	}
	return keep
}

// sortFilter marks the non-dominated rows of an n×k matrix by sort-filter.
// A row that dominates another is lexicographically smaller, so once the
// rows are in lexicographic order a row can be dominated only by an
// earlier one; and since dominance is transitive, a dominated row is
// dominated by some non-dominated one. Each row is therefore checked only
// against the frontier kept so far, with cancellation every 64 rows.
func sortFilter(ctx context.Context, vals [][]float64) ([]bool, error) {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(vals[a], vals[b]) })
	keep := make([]bool, len(vals))
	var front []float64 // the kept rows, flattened in sorted order
	for n, i := range order {
		if n%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if row := vals[i]; !frontDominates(front, row) {
			keep[i] = true
			front = append(front, row...)
		}
	}
	return keep, nil
}

// frontDominates reports whether a row of front, rows of len(row) values
// each that sort lexicographically at or before row, dominates row. Such a
// row is at least as good in column 0 already, so it dominates row when it
// is at least as good in every other column and is not equal to it.
func frontDominates(front, row []float64) bool {
	k := len(row)
	if k == 0 {
		return false
	}
	for o := 0; o < len(front); o += k {
		f := front[o : o+k : o+k]
		below := true
		for j := 1; j < k; j++ {
			if f[j] > row[j] {
				below = false
				break
			}
		}
		if below && !slices.Equal(f, row) {
			return true
		}
	}
	return false
}

// dominatesVals is Dominates over precomputed objective rows.
func dominatesVals(a, b []float64) bool {
	strictly := false
	for j := range a {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			strictly = true
		}
	}
	return strictly
}

// Minimize returns the candidate with the lowest objective value; ties
// preserve input order. NaN objective values are treated as +Inf (always
// lose), so a NaN first candidate cannot silently survive as "best".
func Minimize(cands []metrics.Candidate, o Objective) (metrics.Candidate, error) {
	if len(cands) == 0 {
		return metrics.Candidate{}, fmt.Errorf("dse: no candidates")
	}
	best := cands[0]
	bestV := saneEval(o, best)
	for _, c := range cands[1:] {
		if v := saneEval(o, c); v < bestV {
			best, bestV = c, v
		}
	}
	if math.IsInf(bestV, 1) {
		return metrics.Candidate{}, fmt.Errorf("dse: every candidate is invalid under %s", o.Name)
	}
	return best, nil
}

// Constraint accepts or rejects a candidate.
type Constraint struct {
	Name   string
	Accept func(metrics.Candidate) bool
}

// MaxDelay constrains delay to at most d seconds — a QoS floor when d is
// derived from a frame-rate target.
func MaxDelay(seconds float64) Constraint {
	return Constraint{
		Name:   fmt.Sprintf("delay ≤ %gs", seconds),
		Accept: func(c metrics.Candidate) bool { return c.Delay.Seconds() <= seconds },
	}
}

// MaxArea constrains area to at most mm² — the resource budget of
// Figure 13 (right).
func MaxArea(mm2 float64) Constraint {
	return Constraint{
		Name:   fmt.Sprintf("area ≤ %gmm²", mm2),
		Accept: func(c metrics.Candidate) bool { return c.Area.MM2() <= mm2 },
	}
}

// ConstrainedMinimize returns the candidate minimizing the objective among
// those satisfying every constraint.
func ConstrainedMinimize(cands []metrics.Candidate, o Objective, constraints ...Constraint) (metrics.Candidate, error) {
	var feasible []metrics.Candidate
	for _, c := range cands {
		ok := true
		for _, con := range constraints {
			if !con.Accept(c) {
				ok = false
				break
			}
		}
		if ok {
			feasible = append(feasible, c)
		}
	}
	if len(feasible) == 0 {
		names := make([]string, len(constraints))
		for i, con := range constraints {
			names[i] = con.Name
		}
		return metrics.Candidate{}, fmt.Errorf("dse: no candidate satisfies %v", names)
	}
	return Minimize(feasible, o)
}

// Linspace returns n evenly spaced values over [lo, hi] inclusive.
func Linspace(lo, hi float64, n int) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("dse: linspace needs n ≥ 2, got %d", n)
	}
	if hi < lo {
		return nil, fmt.Errorf("dse: linspace bounds inverted [%v, %v]", lo, hi)
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // exact upper bound despite accumulation error
	return out, nil
}

// PowersOf2 returns the powers of two in [lo, hi], the paper's MAC sweep
// shape.
func PowersOf2(lo, hi int) ([]int, error) {
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("dse: invalid power-of-2 range [%d, %d]", lo, hi)
	}
	var out []int
	p := 1
	for p < lo {
		p *= 2
	}
	for ; p <= hi; p *= 2 {
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dse: no powers of 2 in [%d, %d]", lo, hi)
	}
	return out, nil
}

// MetricRanking pairs a Table 2 metric with its ranked candidates.
type MetricRanking struct {
	Metric metrics.Metric
	Ranked []metrics.Scored
}

// RankAllOrdered evaluates candidates under every Table 2 metric and
// returns the per-metric rankings in metrics.All() order — the summary
// Figure 8(d)/Figure 12 panels present, in a stable order for printers.
func RankAllOrdered(cands []metrics.Candidate) ([]MetricRanking, error) {
	out := make([]MetricRanking, 0, len(metrics.All()))
	for _, m := range metrics.All() {
		ranked, err := metrics.Rank(m, cands)
		if err != nil {
			return nil, err
		}
		out = append(out, MetricRanking{Metric: m, Ranked: ranked})
	}
	return out, nil
}

// MetricWinner pairs a metric with the name of its winning candidate.
type MetricWinner struct {
	Metric metrics.Metric
	Name   string
}

// WinnersOrdered reduces RankAllOrdered to the winning candidate per
// metric, in metrics.All() order, for deterministic presentation.
func WinnersOrdered(cands []metrics.Candidate) ([]MetricWinner, error) {
	ordered, err := RankAllOrdered(cands)
	if err != nil {
		return nil, err
	}
	out := make([]MetricWinner, len(ordered))
	for i, r := range ordered {
		out[i] = MetricWinner{Metric: r.Metric, Name: r.Ranked[0].Candidate.Name}
	}
	return out, nil
}
