package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"act/internal/units"
)

func candidate(name string, c, e, d, a float64) Candidate {
	return Candidate{
		Name:     name,
		Embodied: units.Grams(c),
		Energy:   units.Joules(e),
		Delay:    time.Duration(d * float64(time.Second)),
		Area:     units.MM2(a),
	}
}

func TestEvalFormulas(t *testing.T) {
	c := candidate("x", 2, 3, 5, 7)
	cases := []struct {
		m    Metric
		want float64
	}{
		{EDP, 3 * 5},
		{EDAP, 3 * 5 * 7},
		{CDP, 2 * 5},
		{CEP, 2 * 3},
		{C2EP, 2 * 2 * 3},
		{CE2P, 2 * 3 * 3},
	}
	for _, tc := range cases {
		got, err := Eval(tc.m, c)
		if err != nil {
			t.Fatalf("Eval(%s): %v", tc.m, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Eval(%s) = %v, want %v", tc.m, got, tc.want)
		}
	}
	if _, err := Eval("XYZ", c); err == nil {
		t.Error("Eval(unknown metric): expected error")
	}
}

func TestValidate(t *testing.T) {
	if err := candidate("ok", 1, 1, 1, 1).Validate(); err != nil {
		t.Errorf("valid candidate rejected: %v", err)
	}
	bad := []Candidate{
		candidate("zero-delay", 1, 1, 0, 1),
		candidate("neg-energy", 1, -1, 1, 1),
		candidate("neg-carbon", -1, 1, 1, 1),
		candidate("neg-area", 1, 1, 1, -1),
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("candidate %q: expected validation error", c.Name)
		}
		if _, err := Eval(CDP, c); err == nil {
			t.Errorf("Eval on %q: expected error", c.Name)
		}
	}
}

func TestAllAndCarbonAware(t *testing.T) {
	if got := All(); len(got) != 6 {
		t.Errorf("All() = %d metrics, want 6", len(got))
	}
	for _, m := range CarbonAware() {
		if m == EDP || m == EDAP {
			t.Errorf("CarbonAware() includes PPA metric %s", m)
		}
	}
	if len(CarbonAware()) != 4 {
		t.Errorf("CarbonAware() = %d metrics, want 4", len(CarbonAware()))
	}
}

func TestUseCase(t *testing.T) {
	for _, m := range All() {
		s, err := UseCase(m)
		if err != nil || s == "" {
			t.Errorf("UseCase(%s) = %q, %v", m, s, err)
		}
	}
	if _, err := UseCase("XYZ"); err == nil {
		t.Error("UseCase(unknown): expected error")
	}
}

func TestMetricBiases(t *testing.T) {
	// Two designs: "lean" has half the carbon, "fast" half the energy and
	// delay. The carbon-weighted metric (C2EP) must pick lean; the
	// energy-weighted one (CE2P) must pick fast.
	lean := candidate("lean", 1, 4, 4, 1)
	fast := candidate("fast", 2, 2, 2, 1)
	cs := []Candidate{lean, fast}

	best, err := Best(C2EP, cs)
	if err != nil || best.Candidate.Name != "lean" {
		t.Errorf("C2EP best = %v, %v, want lean", best.Candidate.Name, err)
	}
	best, err = Best(CE2P, cs)
	if err != nil || best.Candidate.Name != "fast" {
		t.Errorf("CE2P best = %v, %v, want fast", best.Candidate.Name, err)
	}
	// CEP is indifferent here (1*4 vs 2*2): stable order keeps lean first.
	ranked, err := Rank(CEP, cs)
	if err != nil || ranked[0].Candidate.Name != "lean" {
		t.Errorf("CEP tie should preserve input order, got %v", ranked[0].Candidate.Name)
	}
}

func TestRankSorted(t *testing.T) {
	cs := []Candidate{
		candidate("a", 3, 3, 3, 1),
		candidate("b", 1, 1, 1, 1),
		candidate("c", 2, 2, 2, 1),
	}
	ranked, err := Rank(CDP, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "c", "a"}
	for i, w := range want {
		if ranked[i].Candidate.Name != w {
			t.Errorf("rank[%d] = %s, want %s", i, ranked[i].Candidate.Name, w)
		}
	}
	if _, err := Rank(CDP, nil); err == nil {
		t.Error("Rank(empty): expected error")
	}
}

func TestNormalized(t *testing.T) {
	cs := []Candidate{
		candidate("cpu", 2, 2, 2, 1),
		candidate("gpu", 4, 1, 1, 1),
	}
	out, err := Normalized(CEP, cs, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Value != 1 {
		t.Errorf("baseline normalized value = %v, want 1", out[0].Value)
	}
	if math.Abs(out[1].Value-1) > 1e-9 { // gpu CEP = 4*1 = cpu CEP = 2*2
		t.Errorf("gpu normalized CEP = %v, want 1", out[1].Value)
	}
	if _, err := Normalized(CEP, cs, "dsp"); err == nil {
		t.Error("missing baseline: expected error")
	}
	if _, err := Normalized(CEP, []Candidate{candidate("z", 0, 0, 1, 1)}, "z"); err == nil {
		t.Error("degenerate baseline (0): expected error")
	}
}

// Property: scaling a candidate's carbon by k scales CDP/CEP by k, C2EP by
// k², and leaves EDP unchanged.
func TestQuickCarbonScaling(t *testing.T) {
	f := func(cRaw, kRaw uint8) bool {
		c0 := float64(cRaw%100) + 1
		k := float64(kRaw%9) + 2
		base := candidate("b", c0, 3, 5, 7)
		scaled := candidate("s", c0*k, 3, 5, 7)
		for _, tc := range []struct {
			m    Metric
			want float64
		}{{CDP, k}, {CEP, k}, {C2EP, k * k}, {CE2P, k}, {EDP, 1}, {EDAP, 1}} {
			vb, err1 := Eval(tc.m, base)
			vs, err2 := Eval(tc.m, scaled)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(vs/vb-tc.want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rank's winner equals the minimum of Eval over the set.
func TestQuickBestIsMinimum(t *testing.T) {
	f := func(seed [6]uint8) bool {
		cs := make([]Candidate, 3)
		for i := range cs {
			cs[i] = candidate(string(rune('a'+i)),
				float64(seed[i]%50)+1, float64(seed[i+3]%50)+1, float64(i)+1, 1)
		}
		for _, m := range All() {
			best, err := Best(m, cs)
			if err != nil {
				return false
			}
			for _, c := range cs {
				v, err := Eval(m, c)
				if err != nil {
					return false
				}
				if v < best.Value {
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

func TestDelayFromSeconds(t *testing.T) {
	for _, s := range []float64{1e-9, 1, 9.2e9, -1} {
		d, err := DelayFromSeconds(s)
		if err != nil || d != time.Duration(s*float64(time.Second)) {
			t.Errorf("DelayFromSeconds(%v) = %v, %v", s, d, err)
		}
	}
	for _, s := range []float64{1e300, float64(maxDelaySeconds), -1e300, math.Inf(1), math.NaN()} {
		if d, err := DelayFromSeconds(s); err == nil {
			t.Errorf("DelayFromSeconds(%v) = %v, want an error", s, d)
		}
	}
}
