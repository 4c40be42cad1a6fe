package dse

import (
	"context"
	"errors"
	"math"
	"testing"

	"act/internal/metrics"
)

// paretoReference is the pre-optimization frontier, verbatim: an O(n²)
// dominance scan that re-invokes Objective.Eval inside the loop (O(n²·k)
// model evaluations). Kept as the oracle for equivalence tests and the
// sequential benchmark baseline.
func paretoReference(cands []metrics.Candidate, objectives []Objective) []metrics.Candidate {
	var out []metrics.Candidate
	for i, c := range cands {
		dominated := false
		for j, other := range cands {
			if i == j {
				continue
			}
			if Dominates(other, c, objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// lcg is a tiny deterministic generator for test/bench datasets.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / float64(1<<53)
}

func randomCands(n int, seed uint64) []metrics.Candidate {
	g := lcg(seed)
	out := make([]metrics.Candidate, n)
	for i := range out {
		out[i] = cand("c", 1+99*g.next(), 1+99*g.next(), 1+99*g.next(), 1+99*g.next())
	}
	// Sprinkle exact duplicates so the duplicate-retention rule is
	// exercised by the equivalence check.
	for i := 5; i+3 < n; i += 97 {
		out[i+3] = out[i]
	}
	return out
}

// TestParetoFastMatchesReference checks the sorted 2-objective path and the
// ND matrix path against the reference implementation on random datasets
// of up to 562 rows.
func TestParetoFastMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 200, 512 + 50} {
		cands := randomCands(n, uint64(n)*7919+1)
		for _, objs := range [][]Objective{
			{Embodied, Delay},
			{Embodied, Delay, Energy},
			{Embodied, Delay, Energy, Area},
		} {
			want := paretoReference(cands, objs)
			got, err := ParetoFrontier(cands, objs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: frontier size %d, want %d", n, len(objs), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: frontier[%d] differs", n, len(objs), i)
				}
			}
		}
	}
}

// TestParetoEvalCount pins the acceptance criterion: the frontier performs
// exactly n·k objective evaluations, not O(n²·k).
func TestParetoEvalCount(t *testing.T) {
	for _, n := range []int{10, 100} {
		cands := randomCands(n, 42)
		var evals int
		counted := func(base Objective) Objective {
			return Objective{base.Name, func(c metrics.Candidate) float64 {
				evals++
				return base.Eval(c)
			}}
		}
		for _, k := range []int{2, 3} {
			objs := []Objective{counted(Embodied), counted(Delay), counted(Energy)}[:k]
			evals = 0
			if _, err := ParetoFrontier(cands, objs); err != nil {
				t.Fatal(err)
			}
			if evals != n*k {
				t.Errorf("n=%d k=%d: %d objective evaluations, want exactly %d", n, k, evals, n*k)
			}
		}
	}
}

func TestParetoDuplicatesRetained(t *testing.T) {
	a := cand("a", 1, 1, 2, 1)
	b := cand("b", 1, 9, 2, 9) // equal on (embodied, delay): duplicate point
	c := cand("c", 2, 1, 3, 1) // dominated by both
	front, err := ParetoFrontier([]metrics.Candidate{a, b, c}, []Objective{Embodied, Delay})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 2 || front[0].Name != "a" || front[1].Name != "b" {
		t.Errorf("frontier = %v, want both duplicates in input order", front)
	}
}

// TestMinimizeNaN is the regression test for the NaN-survives-as-best bug:
// a NaN objective value in first position must lose to any finite value.
func TestMinimizeNaN(t *testing.T) {
	nan := Objective{"nan-first", func(c metrics.Candidate) float64 {
		if c.Name == "poisoned" {
			return math.NaN()
		}
		return c.Embodied.Grams()
	}}
	cands := []metrics.Candidate{
		cand("x", 5, 1, 1, 1),
		cand("y", 3, 1, 1, 1),
	}
	cands[0].Name = "poisoned"
	best, err := Minimize(cands, nan)
	if err != nil {
		t.Fatal(err)
	}
	if best.Name != "y" {
		t.Errorf("Minimize kept the NaN candidate %q as best", best.Name)
	}
	// All-NaN behaves like all-invalid.
	allNaN := Objective{"nan", func(metrics.Candidate) float64 { return math.NaN() }}
	if _, err := Minimize(cands, allNaN); err == nil {
		t.Error("all-NaN Minimize: expected error")
	}
}

// TestParetoNaNLoses: the frontier treats NaN like +Inf, so a NaN point is
// dominated by any finite point rather than surviving unconditionally.
func TestParetoNaNLoses(t *testing.T) {
	o := Objective{"maybe-nan", func(c metrics.Candidate) float64 {
		if c.Name == "poisoned" {
			return math.NaN()
		}
		return c.Embodied.Grams()
	}}
	cands := []metrics.Candidate{
		cand("poisoned", 1, 1, 1, 1),
		cand("fine", 2, 1, 1, 1),
	}
	front, err := ParetoFrontier(cands, []Objective{o, Delay})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 || front[0].Name != "fine" {
		t.Errorf("frontier = %v, want only the finite point", front)
	}
}

func TestWinnersOrdered(t *testing.T) {
	cands := []metrics.Candidate{
		cand("lean", 1, 4, 4, 1),
		cand("fast", 4, 1, 1, 4),
	}
	ordered, err := WinnersOrdered(cands)
	if err != nil {
		t.Fatal(err)
	}
	all := metrics.All()
	if len(ordered) != len(all) {
		t.Fatalf("%d winners, want %d", len(ordered), len(all))
	}
	for i, w := range ordered {
		if w.Metric != all[i] {
			t.Errorf("winner[%d] metric = %s, want %s (metrics.All() order)", i, w.Metric, all[i])
		}
	}
	ranked, err := RankAllOrdered(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranked {
		if r.Metric != all[i] || len(r.Ranked) != 2 {
			t.Errorf("ranking[%d] = %s with %d entries", i, r.Metric, len(r.Ranked))
		}
	}
	if _, err := WinnersOrdered(nil); err == nil {
		t.Error("empty: expected error")
	}
}

// bruteNonDominated is the pairwise oracle for NonDominated, on a copy with
// NaN read as +Inf.
func bruteNonDominated(vals [][]float64) []bool {
	sane := make([][]float64, len(vals))
	for i, row := range vals {
		sane[i] = make([]float64, len(row))
		for j, v := range row {
			if math.IsNaN(v) {
				v = math.Inf(1)
			}
			sane[i][j] = v
		}
	}
	keep := make([]bool, len(sane))
	for i := range sane {
		keep[i] = true
		for j := range sane {
			if i != j && dominatesVals(sane[j], sane[i]) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// TestNonDominatedMatchesBrute holds the exported frontier core to the
// pairwise oracle for 1, 2 and 3 columns on coarse integer grids (so ties
// and duplicates are common) salted with ±Inf and NaN.
func TestNonDominatedMatchesBrute(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, k := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 7, 60, 512 + 9} {
			g := lcg(uint64(k*1000 + n))
			vals := make([][]float64, n)
			for i := range vals {
				vals[i] = make([]float64, k)
				for j := range vals[i] {
					vals[i][j] = float64(int(g.next() * 5))
					if g.next() < 0.05 {
						vals[i][j] = specials[int(g.next()*3)]
					}
				}
			}
			want := bruteNonDominated(vals)
			got, err := NonDominated(context.Background(), vals)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("k=%d n=%d: %d verdicts", k, n, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d: row %d %v keep=%v, want %v", k, n, i, vals[i], got[i], want[i])
				}
			}
		}
	}
}

// TestNonDominatedNaNRewritten: a NaN entry is read, and left, as +Inf, so
// the NaN row is dominated rather than dominating.
func TestNonDominatedNaNRewritten(t *testing.T) {
	vals := [][]float64{{math.NaN(), 0}, {1, 1}, {math.NaN(), 2}}
	keep, err := NonDominated(context.Background(), vals)
	if err != nil {
		t.Fatal(err)
	}
	// (+Inf,0) and (1,1) are mutually non-dominated; (+Inf,2) loses to both.
	if !keep[0] || !keep[1] || keep[2] {
		t.Fatalf("keep = %v, want [true true false]", keep)
	}
	if !math.IsInf(vals[0][0], 1) {
		t.Fatalf("NaN entry left as %v, want +Inf", vals[0][0])
	}
}

// TestNonDominatedCancelled: the frontier stops on a done context, at a
// small and a large row count.
func TestNonDominatedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{10, 512} {
		vals := make([][]float64, n)
		for i := range vals {
			vals[i] = []float64{float64(i), float64(n - i), 0}
		}
		if _, err := NonDominated(ctx, vals); !errors.Is(err, context.Canceled) {
			t.Errorf("n=%d: err = %v, want context.Canceled", n, err)
		}
	}
}
