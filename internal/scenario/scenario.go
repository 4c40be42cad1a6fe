// Package scenario defines the JSON description of a footprint assessment
// consumed by the act command line: a device bill of materials (logic dies
// with fab parameters, DRAM modules, storage drives), the software usage,
// and the lifetime over which embodied carbon is amortized.
package scenario

import (
	"fmt"
	"io"
	"time"

	"act/internal/acterr"
	"act/internal/core"
	"act/internal/fab"
	"act/internal/memdb"
	"act/internal/storagedb"
	"act/internal/units"
)

// FabSpec configures the fab manufacturing a logic die. Zero-valued
// fields take the paper's defaults.
type FabSpec struct {
	// CarbonIntensity is CIfab in g CO2/kWh (default: Taiwan grid + 25%
	// renewable).
	CarbonIntensity float64 `json:"carbon_intensity,omitempty"`
	// Abatement is the gaseous abatement effectiveness in [0.95, 0.99]
	// (default 0.95).
	Abatement float64 `json:"abatement,omitempty"`
	// Yield is the fixed fab yield in (0, 1] (default 0.875).
	Yield float64 `json:"yield,omitempty"`
}

// LogicSpec describes logic dies.
type LogicSpec struct {
	Name string `json:"name"`
	// AreaMM2 is the per-die area in mm².
	AreaMM2 float64 `json:"area_mm2"`
	// Node is the process node: "28nm".."3nm", "7nm-euv", or any feature
	// size to snap ("16nm").
	Node string `json:"node"`
	// Count is the number of identical dies (default 1).
	Count int      `json:"count,omitempty"`
	Fab   *FabSpec `json:"fab,omitempty"`
}

// DRAMSpec describes a DRAM module.
type DRAMSpec struct {
	Name string `json:"name"`
	// Technology is a Table 9 name, e.g. "lpddr4", "10nm DDR4".
	Technology string  `json:"technology"`
	CapacityGB float64 `json:"capacity_gb"`
}

// StorageSpec describes an SSD or HDD.
type StorageSpec struct {
	Name string `json:"name"`
	// Technology is a Table 10/11 name, e.g. "v3-nand-tlc", "exosx16".
	Technology string  `json:"technology"`
	CapacityGB float64 `json:"capacity_gb"`
}

// UsageSpec describes the operational side.
type UsageSpec struct {
	// PowerW is the average power draw while the application runs.
	PowerW float64 `json:"power_w"`
	// AppHours is T, the application execution time in hours.
	AppHours float64 `json:"app_hours"`
	// IntensityGPerKWh is CIuse (default: US grid, 300).
	IntensityGPerKWh float64 `json:"intensity_g_per_kwh,omitempty"`
	// PUE scales device energy to wall energy (≥ 1); mutually exclusive
	// with BatteryEfficiency.
	PUE float64 `json:"pue,omitempty"`
	// BatteryEfficiency is the charging-path efficiency in (0, 1];
	// mutually exclusive with PUE.
	BatteryEfficiency float64 `json:"battery_efficiency,omitempty"`
}

// TransportSpec describes one shipment leg (Figure 3's transport phase).
type TransportSpec struct {
	Name       string  `json:"name"`
	MassKg     float64 `json:"mass_kg"`
	DistanceKm float64 `json:"distance_km"`
	// Mode is "air", "sea", "road" or "rail".
	Mode string `json:"mode"`
}

// EndOfLifeSpec describes recycling/disposal (Figure 3's final phase).
type EndOfLifeSpec struct {
	ProcessingKg      float64 `json:"processing_kg,omitempty"`
	RecyclingCreditKg float64 `json:"recycling_credit_kg,omitempty"`
}

// Spec is the full scenario.
type Spec struct {
	// Version is the wire-format envelope version. Zero (a pre-envelope
	// scenario) means Version 1; any other value is rejected with
	// acterr.UnsupportedVersionError. See wire.go for the frozen format.
	Version  int           `json:"version,omitempty"`
	Name     string        `json:"name"`
	Logic    []LogicSpec   `json:"logic,omitempty"`
	DRAM     []DRAMSpec    `json:"dram,omitempty"`
	Storage  []StorageSpec `json:"storage,omitempty"`
	ExtraICs int           `json:"extra_ics,omitempty"`
	Usage    UsageSpec     `json:"usage"`
	// Transport and EndOfLife enable the four-phase life-cycle report.
	Transport []TransportSpec `json:"transport,omitempty"`
	EndOfLife *EndOfLifeSpec  `json:"end_of_life,omitempty"`
	// LifetimeYears is LT (default 3).
	LifetimeYears float64 `json:"lifetime_years,omitempty"`
}

// Parse reads r to EOF and decodes the scenario with Unmarshal, so a
// file, a pipe and a request body are held to the same rules.
func Parse(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Unmarshal(data)
}

// checkVersion normalizes a missing version to 1 and rejects versions this
// library does not speak.
func (s *Spec) checkVersion() error {
	switch s.Version {
	case 0:
		s.Version = Version
	case Version:
	default:
		return fmt.Errorf("scenario: %w", &acterr.UnsupportedVersionError{Version: s.Version})
	}
	return nil
}

// buildFab constructs the fab for a logic spec.
func buildFab(nodeName string, spec *FabSpec) (*fab.Fab, error) {
	params, err := fab.ParseNode(nodeName)
	if err != nil {
		return nil, err
	}
	var opts []fab.Option
	if spec != nil {
		if spec.CarbonIntensity != 0 {
			opts = append(opts, fab.WithCarbonIntensity(units.GramsPerKWh(spec.CarbonIntensity)))
		}
		if spec.Abatement != 0 {
			opts = append(opts, fab.WithAbatement(spec.Abatement))
		}
		if spec.Yield != 0 {
			opts = append(opts, fab.WithYield(fab.FixedYield(spec.Yield)))
		}
	}
	return fab.New(params.Node, opts...)
}

// Device materializes the scenario's bill of materials. Validation
// failures carry their JSON field path (acterr.InvalidSpecError), so both
// the CLI and the service can point at the offending field.
func (s *Spec) Device() (*core.Device, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: %w", acterr.Invalid("name", "missing device name"))
	}
	if len(s.Logic)+len(s.DRAM)+len(s.Storage) == 0 {
		return nil, fmt.Errorf("scenario: %w", acterr.Invalid("", "device %q has no components", s.Name))
	}
	d, err := core.NewDevice(s.Name)
	if err != nil {
		return nil, err
	}
	for i, l := range s.Logic {
		f, err := buildFab(l.Node, l.Fab)
		if err != nil {
			return nil, fmt.Errorf("scenario: logic %q: %w", l.Name, acterr.Prefix(fmt.Sprintf("logic[%d]", i), err))
		}
		count := l.Count
		if count == 0 {
			count = 1
		}
		logic, err := core.NewLogic(l.Name, units.MM2(l.AreaMM2), f, count)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", acterr.Prefix(fmt.Sprintf("logic[%d]", i), err))
		}
		d.AddLogic(logic)
	}
	for i, m := range s.DRAM {
		entry, err := memdb.Parse(m.Technology)
		if err != nil {
			return nil, fmt.Errorf("scenario: dram %q: %w", m.Name, acterr.Prefix(fmt.Sprintf("dram[%d].technology", i), err))
		}
		dram, err := core.NewDRAM(m.Name, entry.Technology, units.Gigabytes(m.CapacityGB))
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", acterr.Prefix(fmt.Sprintf("dram[%d]", i), err))
		}
		d.AddDRAM(dram)
	}
	for i, st := range s.Storage {
		entry, err := storagedb.Parse(st.Technology)
		if err != nil {
			return nil, fmt.Errorf("scenario: storage %q: %w", st.Name, acterr.Prefix(fmt.Sprintf("storage[%d].technology", i), err))
		}
		drive, err := core.NewStorage(st.Name, entry.Technology, units.Gigabytes(st.CapacityGB))
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", acterr.Prefix(fmt.Sprintf("storage[%d]", i), err))
		}
		d.AddStorage(drive)
	}
	d.AddExtraICs(s.ExtraICs)
	return d, nil
}

// usage builds the (possibly effectiveness-scaled) operational input.
func (s *Spec) usage() (core.Usage, error) {
	ci := s.Usage.IntensityGPerKWh
	if ci == 0 {
		ci = 300 // US grid default
	}
	if ci < 0 {
		return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Invalid("usage.intensity_g_per_kwh", "negative intensity %v", ci))
	}
	if s.Usage.PowerW < 0 {
		return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Invalid("usage.power_w", "negative power_w %v", s.Usage.PowerW))
	}
	if s.Usage.AppHours <= 0 {
		return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Invalid("usage.app_hours", "non-positive app_hours %v", s.Usage.AppHours))
	}
	appTime := units.Years(s.Usage.AppHours / (365.25 * 24))
	u := core.UsageFromPower(units.Watts(s.Usage.PowerW), appTime, units.GramsPerKWh(ci))
	if s.Usage.PUE != 0 && s.Usage.BatteryEfficiency != 0 {
		return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Invalid("usage", "pue and battery_efficiency are mutually exclusive"))
	}
	var eu core.EffectiveUsage
	var err error
	switch {
	case s.Usage.PUE != 0:
		if eu, err = core.PUE(u, s.Usage.PUE); err != nil {
			return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Prefix("usage.pue", err))
		}
	case s.Usage.BatteryEfficiency != 0:
		if eu, err = core.BatteryEfficiency(u, s.Usage.BatteryEfficiency); err != nil {
			return core.Usage{}, fmt.Errorf("scenario: %w", acterr.Prefix("usage.battery_efficiency", err))
		}
	default:
		return u, nil
	}
	return eu.WallUsage()
}

// Lifetime returns LT in years with the 3-year default applied — the
// amortization horizon of Eq. 1 that fleet accounting shares with the
// single-device assessment.
func (s *Spec) Lifetime() float64 {
	if s.LifetimeYears == 0 {
		return 3
	}
	return s.LifetimeYears
}

// lifetimeDuration returns LT as a duration, rejecting a non-positive
// lifetime with a typed error (the client's to fix, not a 500).
func (s *Spec) lifetimeDuration() (time.Duration, error) {
	lt := s.Lifetime()
	if lt <= 0 {
		return 0, fmt.Errorf("scenario: %w", acterr.Invalid("lifetime_years", "non-positive lifetime_years %v", lt))
	}
	return units.Years(lt), nil
}

// Assess evaluates the scenario end to end (Eq. 1).
func (s *Spec) Assess() (core.Assessment, error) {
	d, err := s.Device()
	if err != nil {
		return core.Assessment{}, err
	}
	usage, err := s.usage()
	if err != nil {
		return core.Assessment{}, err
	}
	lifetime, err := s.lifetimeDuration()
	if err != nil {
		return core.Assessment{}, err
	}
	appTime := units.Years(s.Usage.AppHours / (365.25 * 24))
	// Compare the same durations core.Footprint compares, so the typed
	// rejection fires exactly where the plain core one would.
	if appTime > lifetime {
		return core.Assessment{}, fmt.Errorf("scenario: %w",
			acterr.Invalid("usage.app_hours", "app_hours %v exceeds the %v-year lifetime", s.Usage.AppHours, s.Lifetime()))
	}
	return core.Footprint(d, usage, appTime, lifetime)
}

// HasLifeCycle reports whether the scenario carries transport or
// end-of-life data, enabling the four-phase report.
func (s *Spec) HasLifeCycle() bool {
	return len(s.Transport) > 0 || s.EndOfLife != nil
}

// LifeCycle evaluates the four-phase product footprint (Figure 3): the
// usage is treated as the whole-lifetime operational profile.
func (s *Spec) LifeCycle() (core.PhaseReport, error) {
	d, err := s.Device()
	if err != nil {
		return core.PhaseReport{}, err
	}
	usage, err := s.usage()
	if err != nil {
		return core.PhaseReport{}, err
	}
	lifetime, err := s.lifetimeDuration()
	if err != nil {
		return core.PhaseReport{}, err
	}
	lc := core.LifeCycle{
		Device:   d,
		Use:      core.EffectiveUsage{Usage: usage, Effectiveness: 1},
		Lifetime: lifetime,
	}
	for i, leg := range s.Transport {
		// Canonicalize the mode the same way CanonicalKey does — "Air" and
		// "air" must evaluate identically or the footprint cache, keyed on
		// the canonical form, would conflate a valid spec with an invalid
		// one. Unknown modes and negative quantities are the client's to
		// fix, so they are typed here rather than left to core's plain
		// errors.
		mode := core.TransportMode(canonName(leg.Mode))
		switch mode {
		case core.TransportAir, core.TransportSea, core.TransportRoad, core.TransportRail:
		default:
			return core.PhaseReport{}, fmt.Errorf("scenario: %w",
				acterr.Invalid(fmt.Sprintf("transport[%d].mode", i), "unknown transport mode %q (want air, sea, road or rail)", leg.Mode))
		}
		if leg.MassKg < 0 {
			return core.PhaseReport{}, fmt.Errorf("scenario: %w",
				acterr.Invalid(fmt.Sprintf("transport[%d].mass_kg", i), "negative mass_kg %v", leg.MassKg))
		}
		if leg.DistanceKm < 0 {
			return core.PhaseReport{}, fmt.Errorf("scenario: %w",
				acterr.Invalid(fmt.Sprintf("transport[%d].distance_km", i), "negative distance_km %v", leg.DistanceKm))
		}
		lc.Transport = append(lc.Transport, core.TransportLeg{
			Name:       leg.Name,
			MassKg:     leg.MassKg,
			DistanceKm: leg.DistanceKm,
			Mode:       mode,
		})
	}
	if s.EndOfLife != nil {
		lc.EndOfLife = core.EndOfLife{
			Processing:      units.Kilograms(s.EndOfLife.ProcessingKg),
			RecyclingCredit: units.Kilograms(s.EndOfLife.RecyclingCreditKg),
		}
	}
	return lc.Assess()
}

// Example returns a documented sample scenario (the act CLI's -example).
func Example() *Spec {
	return &Spec{
		Name: "mobile-phone",
		Logic: []LogicSpec{
			{Name: "application SoC", AreaMM2: 98.5, Node: "7nm", Count: 1},
			{Name: "board ICs", AreaMM2: 30, Node: "28nm", Count: 12},
		},
		DRAM:    []DRAMSpec{{Name: "LPDDR4", Technology: "lpddr4", CapacityGB: 4}},
		Storage: []StorageSpec{{Name: "flash", Technology: "v3-nand-tlc", CapacityGB: 64}},
		Usage: UsageSpec{
			PowerW:            3,
			AppHours:          2 * 365.25 * 24 * 0.05, // 5% duty over 2 years
			IntensityGPerKWh:  300,
			BatteryEfficiency: 0.85,
		},
		Transport: []TransportSpec{
			{Name: "fab to assembly", MassKg: 0.2, DistanceKm: 1500, Mode: "road"},
			{Name: "assembly to market", MassKg: 0.3, DistanceKm: 9000, Mode: "air"},
		},
		EndOfLife:     &EndOfLifeSpec{ProcessingKg: 0.4, RecyclingCreditKg: 0.1},
		LifetimeYears: 3,
	}
}
