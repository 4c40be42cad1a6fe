package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMassConversions(t *testing.T) {
	if got := Kilograms(1.5).Grams(); got != 1500 {
		t.Errorf("Kilograms(1.5).Grams() = %v, want 1500", got)
	}
	if got := Tonnes(2).Kilograms(); got != 2000 {
		t.Errorf("Tonnes(2).Kilograms() = %v, want 2000", got)
	}
	if got := Grams(500).Tonnes(); got != 5e-4 {
		t.Errorf("Grams(500).Tonnes() = %v, want 5e-4", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	if got := KilowattHours(1).Joules(); got != 3.6e6 {
		t.Errorf("1 kWh = %v J, want 3.6e6", got)
	}
	if got := WattHours(1).Joules(); got != 3600 {
		t.Errorf("1 Wh = %v J, want 3600", got)
	}
	if got := Millijoules(1500).Joules(); got != 1.5 {
		t.Errorf("1500 mJ = %v J, want 1.5", got)
	}
	approx(t, Joules(3.6e6).KilowattHours(), 1, 1e-12, "J->kWh")
}

func TestPowerOver(t *testing.T) {
	e := Watts(6.6).Over(6 * time.Millisecond)
	approx(t, e.Millijoules(), 39.6, 1e-9, "6.6W over 6ms")

	// 1 kW for 1 hour is exactly 1 kWh.
	e = Watts(1000).Over(time.Hour)
	approx(t, e.KilowattHours(), 1, 1e-12, "1kW over 1h")
}

func TestAreaConversions(t *testing.T) {
	if got := CM2(1).MM2(); got != 100 {
		t.Errorf("1 cm² = %v mm², want 100", got)
	}
	if got := MM2(250).CM2(); got != 2.5 {
		t.Errorf("250 mm² = %v cm², want 2.5", got)
	}
}

func TestCapacityConversions(t *testing.T) {
	if got := Terabytes(31).Gigabytes(); got != 31000 {
		t.Errorf("31 TB = %v GB, want 31000", got)
	}
	if got := Megabytes(512).Gigabytes(); got != 0.512 {
		t.Errorf("512 MB = %v GB, want 0.512", got)
	}
}

func TestCarbonIntensityEmitted(t *testing.T) {
	// Table 4 of the paper: 6.6 W for 6 ms at the US grid (300 g/kWh)
	// emits 3.3 µg CO2.
	e := Watts(6.6).Over(6 * time.Millisecond)
	m := GramsPerKWh(300).Emitted(e)
	approx(t, m.Grams(), 3.3e-6, 1e-9, "Table 4 CPU OPCF")
}

func TestCarbonPerAreaFor(t *testing.T) {
	// 1 kg CO2/cm² over 2 cm² is 2 kg.
	m := KilogramsPerCM2(1).For(CM2(2))
	approx(t, m.Kilograms(), 2, 1e-12, "CPA.For")
}

func TestEnergyPerAreaFor(t *testing.T) {
	e := KWhPerCM2(1.2).For(CM2(0.5))
	approx(t, e.KilowattHours(), 0.6, 1e-12, "EPA.For")
}

func TestCarbonPerCapacityFor(t *testing.T) {
	// Table 9: LPDDR4 at 48 g/GB, 4 GB -> 192 g.
	m := GramsPerGB(48).For(Gigabytes(4))
	approx(t, m.Grams(), 192, 1e-12, "CPS.For")
}

func TestYearsRoundTrip(t *testing.T) {
	for _, y := range []float64{0.5, 1, 3, 10} {
		approx(t, InYears(Years(y)), y, 1e-9, "years round trip")
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Grams(3.3e-6).String(), "3.3 µg CO2"},
		{Grams(253).String(), "253 g CO2"},
		{Kilograms(17).String(), "17 kg CO2"},
		{Tonnes(1.2).String(), "1.2 t CO2"},
		{CO2Mass(0).String(), "0 g CO2"},
		{Millijoules(39.6).String(), "39.6 mJ"},
		{KilowattHours(1.2).String(), "1.2 kWh"},
		{Watts(6.6).String(), "6.6 W"},
		{Milliwatts(450).String(), "450 mW"},
		{MM2(83.5).String(), "83.5 mm²"},
		{CM2(2.5).String(), "2.5 cm²"},
		{Gigabytes(64).String(), "64 GB"},
		{Terabytes(31).String(), "31 TB"},
		{GramsPerKWh(583).String(), "583 g CO2/kWh"},
		{GramsPerCM2(500).String(), "500 g CO2/cm²"},
		{KilogramsPerCM2(1.6).String(), "1.6 kg CO2/cm²"},
		{KWhPerCM2(2.75).String(), "2.75 kWh/cm²"},
		{GramsPerGB(48).String(), "48 g CO2/GB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// Property: energy computed by Power.Over is linear in both power and time.
func TestQuickPowerOverLinearity(t *testing.T) {
	f := func(w uint16, ms uint16) bool {
		p := Watts(float64(w))
		d := time.Duration(ms) * time.Millisecond
		e1 := p.Over(d)
		e2 := Power(2 * float64(p)).Over(d)
		e3 := p.Over(2 * d)
		return math.Abs(e2.Joules()-2*e1.Joules()) < 1e-9 &&
			math.Abs(e3.Joules()-2*e1.Joules()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Emitted is linear in energy.
func TestQuickEmittedLinearity(t *testing.T) {
	f := func(ciRaw, eRaw uint32) bool {
		ci := GramsPerKWh(float64(ciRaw % 1000))
		e := KilowattHours(float64(eRaw%10000) / 100)
		half := ci.Emitted(Energy(float64(e) / 2)).Grams()
		full := ci.Emitted(e).Grams()
		return math.Abs(full-2*half) <= 1e-9*math.Max(full, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
