package dse

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"act/internal/metrics"
	"act/internal/units"
)

func cand(name string, c, e, d, a float64) metrics.Candidate {
	return metrics.Candidate{
		Name:     name,
		Embodied: units.Grams(c),
		Energy:   units.Joules(e),
		Delay:    time.Duration(d * float64(time.Second)),
		Area:     units.MM2(a),
	}
}

func TestDominates(t *testing.T) {
	objs := []Objective{Embodied, Delay}
	a := cand("a", 1, 1, 1, 1)
	b := cand("b", 2, 1, 2, 1)
	eq := cand("eq", 1, 9, 1, 9) // equal on both objectives
	if !Dominates(a, b, objs) {
		t.Error("a should dominate b")
	}
	if Dominates(b, a, objs) {
		t.Error("b should not dominate a")
	}
	if Dominates(a, eq, objs) || Dominates(eq, a, objs) {
		t.Error("equal points should not dominate each other")
	}
	// Mixed trade-off: neither dominates.
	c := cand("c", 1, 1, 3, 1)
	d := cand("d", 3, 1, 1, 1)
	if Dominates(c, d, objs) || Dominates(d, c, objs) {
		t.Error("trade-off points should be mutually non-dominated")
	}
}

func TestParetoFrontier(t *testing.T) {
	cands := []metrics.Candidate{
		cand("cheap-slow", 1, 1, 10, 1),
		cand("mid", 5, 1, 5, 1),
		cand("fast-dear", 10, 1, 1, 1),
		cand("dominated", 6, 1, 6, 1), // worse than mid on both
	}
	front, err := ParetoFrontier(cands, []Objective{Embodied, Delay})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range front {
		names[c.Name] = true
	}
	if len(front) != 3 || names["dominated"] {
		t.Errorf("frontier = %v, want the three trade-off points", names)
	}

	if _, err := ParetoFrontier(nil, []Objective{Embodied, Delay}); err == nil {
		t.Error("empty candidates: expected error")
	}
	if _, err := ParetoFrontier(cands, []Objective{Embodied}); err == nil {
		t.Error("single objective: expected error")
	}
}

func TestQuickParetoSound(t *testing.T) {
	// Property: no frontier member is dominated by any input candidate.
	f := func(seed [8]uint8) bool {
		var cands []metrics.Candidate
		for i := 0; i < 4; i++ {
			cands = append(cands, cand(string(rune('a'+i)),
				float64(seed[i]%20)+1, 1, float64(seed[i+4]%20)+1, 1))
		}
		objs := []Objective{Embodied, Delay}
		front, err := ParetoFrontier(cands, objs)
		if err != nil || len(front) == 0 {
			return false
		}
		for _, fc := range front {
			for _, c := range cands {
				if Dominates(c, fc, objs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinimize(t *testing.T) {
	cands := []metrics.Candidate{
		cand("a", 3, 1, 1, 1),
		cand("b", 1, 1, 1, 1),
		cand("c", 2, 1, 1, 1),
	}
	best, err := Minimize(cands, Embodied)
	if err != nil || best.Name != "b" {
		t.Errorf("Minimize = %v, %v, want b", best.Name, err)
	}
	if _, err := Minimize(nil, Embodied); err == nil {
		t.Error("empty: expected error")
	}
}

func TestMetricObjective(t *testing.T) {
	o := MetricObjective(metrics.CDP)
	c := cand("x", 2, 1, 3, 1)
	if got := o.Eval(c); math.Abs(got-6) > 1e-9 {
		t.Errorf("CDP objective = %v, want 6", got)
	}
	// Invalid candidate maps to +Inf rather than a silent zero.
	bad := metrics.Candidate{Name: "bad"}
	if !math.IsInf(o.Eval(bad), 1) {
		t.Error("invalid candidate should evaluate to +Inf")
	}
	if _, err := Minimize([]metrics.Candidate{bad}, o); err == nil {
		t.Error("all-invalid Minimize: expected error")
	}
}

func TestConstrainedMinimize(t *testing.T) {
	// The QoS shape of Figure 13 (left): minimize embodied subject to a
	// delay ceiling.
	cands := []metrics.Candidate{
		cand("tiny", 1, 1, 10, 0.5), // misses QoS
		cand("right", 3, 1, 2, 1),
		cand("huge", 9, 1, 1, 4),
	}
	best, err := ConstrainedMinimize(cands, Embodied, MaxDelay(3))
	if err != nil || best.Name != "right" {
		t.Errorf("QoS-constrained best = %v, %v, want right", best.Name, err)
	}

	// Area budget (Figure 13 right shape).
	best, err = ConstrainedMinimize(cands, Delay, MaxArea(1))
	if err != nil || best.Name != "right" {
		t.Errorf("area-constrained best = %v, %v, want right", best.Name, err)
	}

	if _, err := ConstrainedMinimize(cands, Embodied, MaxDelay(0.1)); err == nil {
		t.Error("infeasible constraints: expected error")
	}
}

func TestLinspace(t *testing.T) {
	xs, err := Linspace(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i, w := range want {
		if math.Abs(xs[i]-w) > 1e-12 {
			t.Errorf("linspace[%d] = %v, want %v", i, xs[i], w)
		}
	}
	if _, err := Linspace(0, 1, 1); err == nil {
		t.Error("n=1: expected error")
	}
	if _, err := Linspace(1, 0, 5); err == nil {
		t.Error("inverted bounds: expected error")
	}
}

func TestPowersOf2(t *testing.T) {
	ps, err := PowersOf2(64, 2048)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 128, 256, 512, 1024, 2048}
	if len(ps) != len(want) {
		t.Fatalf("PowersOf2 = %v", ps)
	}
	for i, w := range want {
		if ps[i] != w {
			t.Errorf("PowersOf2[%d] = %d, want %d", i, ps[i], w)
		}
	}
	// Non-power bounds round inward.
	ps, err = PowersOf2(100, 1000)
	if err != nil || ps[0] != 128 || ps[len(ps)-1] != 512 {
		t.Errorf("PowersOf2(100,1000) = %v, %v", ps, err)
	}
	if _, err := PowersOf2(0, 10); err == nil {
		t.Error("lo=0: expected error")
	}
	if _, err := PowersOf2(9, 9); err == nil {
		t.Error("empty range: expected error")
	}
}

func TestWinnersAndRankAll(t *testing.T) {
	cands := []metrics.Candidate{
		cand("lean", 1, 4, 4, 1),
		cand("fast", 4, 1, 1, 4),
	}
	winners, err := WinnersOrdered(cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 6 {
		t.Fatalf("winners for %d metrics, want 6", len(winners))
	}
	for _, w := range winners {
		switch w.Metric {
		case metrics.C2EP:
			if w.Name != "lean" {
				t.Errorf("C2EP winner = %s, want lean", w.Name)
			}
		case metrics.EDP:
			if w.Name != "fast" {
				t.Errorf("EDP winner = %s, want fast", w.Name)
			}
		}
	}
	ranked, err := RankAllOrdered(cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		if len(r.Ranked) != 2 {
			t.Errorf("%s rank has %d entries", r.Metric, len(r.Ranked))
		}
	}
	if _, err := WinnersOrdered(nil); err == nil {
		t.Error("empty: expected error")
	}
}
