package intensity

import (
	"math"
	"testing"
	"testing/quick"

	"act/internal/units"
)

func TestSourceTableValues(t *testing.T) {
	// Table 5 of the paper.
	cases := []struct {
		s    Source
		want float64
	}{
		{Coal, 820}, {Gas, 490}, {Biomass, 230}, {Solar, 41},
		{Geothermal, 38}, {Hydropower, 24}, {Nuclear, 12}, {Wind, 11},
	}
	for _, c := range cases {
		info, err := BySource(c.s)
		if err != nil {
			t.Fatalf("BySource(%s): %v", c.s, err)
		}
		if info.Intensity.GramsPerKWh() != c.want {
			t.Errorf("%s intensity = %v, want %v", c.s, info.Intensity, c.want)
		}
	}
	if _, err := BySource("fusion"); err == nil {
		t.Error("BySource(fusion): expected error")
	}
}

func TestRegionTableValues(t *testing.T) {
	// Table 6 of the paper.
	cases := []struct {
		r    Region
		want float64
	}{
		{World, 301}, {India, 725}, {Australia, 597}, {Taiwan, 583},
		{Singapore, 495}, {UnitedStates, 380}, {Europe, 295},
		{Brazil, 82}, {Iceland, 28},
	}
	for _, c := range cases {
		info, err := ByRegion(c.r)
		if err != nil {
			t.Fatalf("ByRegion(%s): %v", c.r, err)
		}
		if info.Intensity.GramsPerKWh() != c.want {
			t.Errorf("%s intensity = %v, want %v", c.r, info.Intensity, c.want)
		}
	}
	if _, err := ByRegion("atlantis"); err == nil {
		t.Error("ByRegion(atlantis): expected error")
	}
}

func TestSourcesSortedDescending(t *testing.T) {
	s := Sources()
	if len(s) != 8 {
		t.Fatalf("Sources() returned %d entries, want 8", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i].Intensity > s[i-1].Intensity {
			t.Errorf("Sources() not descending at %d: %v > %v", i, s[i], s[i-1])
		}
	}
	if s[0].Source != Coal || s[len(s)-1].Source != Wind {
		t.Errorf("Sources() extremes = %v ... %v, want coal ... wind", s[0].Source, s[len(s)-1].Source)
	}
}

func TestRegionsSortedDescending(t *testing.T) {
	r := Regions()
	if len(r) != 9 {
		t.Fatalf("Regions() returned %d entries, want 9", len(r))
	}
	for i := 1; i < len(r); i++ {
		if r[i].Intensity > r[i-1].Intensity {
			t.Errorf("Regions() not descending at %d", i)
		}
	}
	if r[0].Region != India || r[len(r)-1].Region != Iceland {
		t.Errorf("Regions() extremes = %v ... %v, want india ... iceland", r[0].Region, r[len(r)-1].Region)
	}
}

func TestMix(t *testing.T) {
	ci, err := Mix(
		Share{Intensity: units.GramsPerKWh(800), Fraction: 0.5},
		Share{Intensity: units.GramsPerKWh(0), Fraction: 0.5},
	)
	if err != nil || ci.GramsPerKWh() != 400 {
		t.Errorf("Mix 50/50 = %v, %v, want 400", ci, err)
	}

	if _, err := Mix(Share{Intensity: 100, Fraction: 0.7}); err == nil {
		t.Error("Mix with fractions summing to 0.7: expected error")
	}
	if _, err := Mix(
		Share{Intensity: 100, Fraction: 1.5},
		Share{Intensity: 100, Fraction: -0.5},
	); err == nil {
		t.Error("Mix with negative fraction: expected error")
	}
}

func TestWithRenewableFraction(t *testing.T) {
	// 0% renewable is the base grid; 100% is pure solar.
	ci, err := WithRenewableFraction(TaiwanGrid, 0)
	if err != nil || ci != TaiwanGrid {
		t.Errorf("0%% renewable = %v, want Taiwan grid", ci)
	}
	ci, err = WithRenewableFraction(TaiwanGrid, 1)
	if err != nil || ci != Renewable {
		t.Errorf("100%% renewable = %v, want solar", ci)
	}
	if _, err := WithRenewableFraction(TaiwanGrid, 1.2); err == nil {
		t.Error("fraction > 1: expected error")
	}
}

func TestDefaultFab(t *testing.T) {
	// The paper's default: Taiwan grid with 25% solar.
	want := 0.75*583 + 0.25*41
	got := DefaultFab().GramsPerKWh()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DefaultFab() = %v, want %v", got, want)
	}
	// Sanity: strictly between pure solar and the raw grid.
	if got <= Renewable.GramsPerKWh() || got >= TaiwanGrid.GramsPerKWh() {
		t.Errorf("DefaultFab() = %v outside (solar, Taiwan grid)", got)
	}
}

func TestQuickMixBounds(t *testing.T) {
	// Property: a two-way mix always lies between its components.
	f := func(aRaw, bRaw uint16, fRaw uint8) bool {
		a := units.GramsPerKWh(float64(aRaw % 1000))
		b := units.GramsPerKWh(float64(bRaw % 1000))
		frac := float64(fRaw) / 255
		ci, err := Mix(Share{a, frac}, Share{b, 1 - frac})
		if err != nil {
			return false
		}
		lo := math.Min(a.GramsPerKWh(), b.GramsPerKWh())
		hi := math.Max(a.GramsPerKWh(), b.GramsPerKWh())
		return ci.GramsPerKWh() >= lo-1e-9 && ci.GramsPerKWh() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
