package fab

import (
	"math"
	"testing"

	"act/internal/intensity"
	"act/internal/units"
)

func TestTable7Values(t *testing.T) {
	cases := []struct {
		node         Node
		epa          float64
		gpa95, gpa99 float64
	}{
		{Node28, 0.90, 175, 100},
		{Node20, 1.2, 190, 110},
		{Node14, 1.2, 200, 125},
		{Node10, 1.475, 240, 150},
		{Node7, 1.52, 350, 200},
		{Node7EUV, 2.15, 350, 200},
		{Node7EUVDP, 2.15, 350, 200},
		{Node5, 2.75, 430, 225},
		{Node3, 2.75, 470, 275},
	}
	for _, c := range cases {
		p, err := Params(c.node)
		if err != nil {
			t.Fatalf("Params(%s): %v", c.node, err)
		}
		if p.EPA.KWhPerCM2() != c.epa {
			t.Errorf("%s EPA = %v, want %v", c.node, p.EPA, c.epa)
		}
		if p.GPA95.GramsPerCM2() != c.gpa95 || p.GPA99.GramsPerCM2() != c.gpa99 {
			t.Errorf("%s GPA = %v/%v, want %v/%v", c.node, p.GPA95, p.GPA99, c.gpa95, c.gpa99)
		}
	}
	if _, err := Params("1nm"); err == nil {
		t.Error("Params(1nm): expected error")
	}
}

func TestEPAMonotoneNewerNodes(t *testing.T) {
	// Figure 6 (top): energy per area rises toward newer nodes.
	nodes := ScalarNodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].EPA < nodes[i-1].EPA {
			t.Errorf("EPA not non-decreasing: %s (%v) < %s (%v)",
				nodes[i].Node, nodes[i].EPA, nodes[i-1].Node, nodes[i-1].EPA)
		}
	}
}

func TestGPAMonotoneNewerNodes(t *testing.T) {
	// Figure 6 (middle): gas emissions per area rise toward newer nodes.
	nodes := ScalarNodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].GPA95 < nodes[i-1].GPA95 || nodes[i].GPA99 < nodes[i-1].GPA99 {
			t.Errorf("GPA not non-decreasing at %s", nodes[i].Node)
		}
	}
}

func TestScalarNodesOrder(t *testing.T) {
	nodes := ScalarNodes()
	want := []Node{Node28, Node20, Node14, Node10, Node7, Node5, Node3}
	if len(nodes) != len(want) {
		t.Fatalf("ScalarNodes() = %d entries, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n.Node != want[i] {
			t.Errorf("ScalarNodes()[%d] = %s, want %s", i, n.Node, want[i])
		}
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		nm   float64
		want Node
	}{
		{28, Node28},
		{22, Node20},
		{16, Node14},
		{14, Node14},
		{12, Node14}, // 12 is equidistant from 14 and 10: prefer older
		{8, Node7},
		{8.5, Node10}, // ties resolve to the older node
		{7, Node7},
		{5, Node5},
		{4, Node5}, // equidistant 5/3: prefer older
		{3, Node3},
		{45, Node28}, // within 2x of the oldest characterized node
	}
	for _, c := range cases {
		p, err := Resolve(c.nm)
		if err != nil {
			t.Errorf("Resolve(%v): %v", c.nm, err)
			continue
		}
		if p.Node != c.want {
			t.Errorf("Resolve(%v) = %s, want %s", c.nm, p.Node, c.want)
		}
	}
	for _, bad := range []float64{0, -7, 90, 1} {
		if _, err := Resolve(bad); err == nil {
			t.Errorf("Resolve(%v): expected error", bad)
		}
	}
}

func TestParseNode(t *testing.T) {
	cases := []struct {
		in   string
		want Node
	}{
		{"7nm", Node7},
		{"7nm-euv", Node7EUV},
		{"7NM-EUV-DP", Node7EUVDP},
		{"16nm", Node14},
		{"16", Node14},
		{" 10nm ", Node10},
	}
	for _, c := range cases {
		p, err := ParseNode(c.in)
		if err != nil {
			t.Errorf("ParseNode(%q): %v", c.in, err)
			continue
		}
		if p.Node != c.want {
			t.Errorf("ParseNode(%q) = %s, want %s", c.in, p.Node, c.want)
		}
	}
	for _, bad := range []string{"", "euv", "nm", "-3nm"} {
		if _, err := ParseNode(bad); err == nil {
			t.Errorf("ParseNode(%q): expected error", bad)
		}
	}
}

func TestYieldModels(t *testing.T) {
	a := units.CM2(1)
	if got := (FixedYield(0.875)).Yield(a); got != 0.875 {
		t.Errorf("FixedYield = %v, want 0.875", got)
	}
	if got := (FixedYield(0.875)).Yield(units.CM2(100)); got != 0.875 {
		t.Errorf("FixedYield depends on area: %v, want 0.875", got)
	}
}

// poissonYield is the Poisson defect model Y = exp(-D0·A), D0 in defects
// per cm²: an area-dependent YieldModel for the tests below.
type poissonYield float64

func (d0 poissonYield) Yield(area units.Area) float64 { return math.Exp(-float64(d0) * area.CM2()) }

func TestNewDefaults(t *testing.T) {
	f, err := New(Node10)
	if err != nil {
		t.Fatal(err)
	}
	if f.CarbonIntensity() != intensity.DefaultFab() {
		t.Errorf("default CIfab = %v, want %v", f.CarbonIntensity(), intensity.DefaultFab())
	}
	if f.Abatement() != 0.95 {
		t.Errorf("default abatement = %v, want 0.95", f.Abatement())
	}
	if f.Yield(units.MM2(100)) != DefaultYield {
		t.Errorf("default yield = %v, want %v", f.Yield(units.MM2(100)), DefaultYield)
	}
	if f.MPA() != MPA {
		t.Errorf("default MPA = %v, want %v", f.MPA(), MPA)
	}
}

func TestNewOptionErrors(t *testing.T) {
	cases := []Option{
		WithCarbonIntensity(-1),
		WithAbatement(0.5),
		WithAbatement(0.999),
		WithYield(nil),
		WithYield(FixedYield(0)),
		WithYield(FixedYield(1.5)),
		WithMPA(-1),
	}
	for i, opt := range cases {
		if _, err := New(Node7, opt); err == nil {
			t.Errorf("option case %d: expected error", i)
		}
	}
}

func TestGPAInterpolation(t *testing.T) {
	// At 95% abatement GPA is the GPA95 column; at 99% the GPA99 column;
	// at 97% (TSMC's reported level) the midpoint.
	mk := func(a float64) units.CarbonPerArea {
		f, err := New(Node7, WithAbatement(a))
		if err != nil {
			t.Fatal(err)
		}
		return f.GPA()
	}
	if got := mk(0.95); math.Abs(got.GramsPerCM2()-350) > 1e-9 {
		t.Errorf("GPA@95%% = %v, want 350", got)
	}
	if got := mk(0.99); math.Abs(got.GramsPerCM2()-200) > 1e-9 {
		t.Errorf("GPA@99%% = %v, want 200", got)
	}
	if got := mk(0.97); math.Abs(got.GramsPerCM2()-275) > 1e-9 {
		t.Errorf("GPA@97%% = %v, want 275", got)
	}
}

func TestCPAEquation(t *testing.T) {
	// Hand-computed Eq. 5 for 10 nm at the default fab:
	// CI = 0.75*583 + 0.25*41 = 447.5 g/kWh; EPA = 1.475 kWh/cm²
	// GPA@95% = 240; MPA = 500; Y = 0.875
	// CPA = (447.5*1.475 + 240 + 500) / 0.875 = (660.0625 + 740) / 0.875
	f, err := New(Node10)
	if err != nil {
		t.Fatal(err)
	}
	want := (447.5*1.475 + 240 + 500) / 0.875
	got, err := f.CPA(units.MM2(100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.GramsPerCM2()-want) > 1e-9 {
		t.Errorf("CPA(10nm default) = %v, want %v g/cm²", got.GramsPerCM2(), want)
	}
}

func TestEmbodiedScalesWithArea(t *testing.T) {
	f, err := New(Node7)
	if err != nil {
		t.Fatal(err)
	}
	one, err := f.Embodied(units.CM2(1))
	if err != nil {
		t.Fatal(err)
	}
	two, err := f.Embodied(units.CM2(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two.Grams()-2*one.Grams()) > 1e-9 {
		t.Errorf("embodied not linear under fixed yield: %v vs 2x%v", two, one)
	}
	if _, err := f.Embodied(units.MM2(-5)); err == nil {
		t.Error("Embodied(negative area): expected error")
	}
}

func TestEmbodiedYieldDiscount(t *testing.T) {
	// Halving yield doubles embodied carbon (Eq. 4-5).
	full, err := New(Node7, WithYield(FixedYield(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(Node7, WithYield(FixedYield(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	a := units.CM2(1)
	ef, _ := full.Embodied(a)
	eh, _ := half.Embodied(a)
	if math.Abs(eh.Grams()-2*ef.Grams()) > 1e-9 {
		t.Errorf("yield discount wrong: %v vs 2x%v", eh, ef)
	}
}

func TestCPAAcrossNodes(t *testing.T) {
	pts, err := CPAAcrossNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("CPAAcrossNodes() = %d points, want 7", len(pts))
	}
	for _, p := range pts {
		// Figure 6 (bottom): lower bound < default < upper bound.
		if !(p.Lower < p.Default && p.Default < p.Upper) {
			t.Errorf("%s: want Lower (%v) < Default (%v) < Upper (%v)",
				p.Node.Node, p.Lower, p.Default, p.Upper)
		}
	}
	// Rising trend: 3 nm strictly above 28 nm in every scenario.
	first, last := pts[0], pts[len(pts)-1]
	if !(last.Lower > first.Lower && last.Default > first.Default && last.Upper > first.Upper) {
		t.Errorf("CPA not rising from 28nm to 3nm: %+v vs %+v", first, last)
	}
}

func TestCPADependsOnAreaUnderDefectYield(t *testing.T) {
	f, err := New(Node7, WithYield(poissonYield(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	small, err := f.CPA(units.MM2(10))
	if err != nil {
		t.Fatal(err)
	}
	large, err := f.CPA(units.MM2(400))
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("CPA should rise with area under defect yield: %v vs %v", small, large)
	}
}

func TestCPAErrorOnDegenerateYield(t *testing.T) {
	// A Poisson model with huge defect density drives yield to numerical
	// zero for large dies; the model must reject rather than divide by it.
	f, err := New(Node7, WithYield(poissonYield(1e6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CPA(units.CM2(10)); err == nil {
		t.Error("CPA with zero yield: expected error")
	}
}
