// Near-valid mutants. Each mutant is one edit away from a valid scenario
// and must be rejected the same way by every surface: a typed
// client-fixable error in the library (acterr.IsInvalid) and a 400 with
// the expected field path from actd. A mutant that slips through as a 500
// — or worse, evaluates — means a validation gap, exactly the class of
// bug the scenario layer has already shipped (case-sensitive transport
// modes, app_hours past the lifetime reaching core as a plain error).

package conform

import (
	"act/internal/scenario"
)

// SpecMutant is a spec-level mutation: it breaks one field of a valid
// scenario and names the field path the typed error must carry.
type SpecMutant struct {
	Name string
	// Field is the exact field path actd's 400 body must report.
	Field string
	Apply func(*scenario.Spec)
}

// WireMutant is a raw-body mutation for failures below the spec layer:
// envelope versions, parse errors, malformed JSON. Body is POSTed to
// /v1/footprint verbatim.
type WireMutant struct {
	Name string
	// Field is the expected 400 field ("" when the error carries no path).
	Field string
	Body  []byte
}

// baseMutantSpec is the valid scenario every spec mutant edits. Kept
// deliberately plain: every table family present once, defaults elsewhere,
// so a mutant's one edit is the only invalid thing about it.
func baseMutantSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:    "mutant-base",
		Logic:   []scenario.LogicSpec{{Name: "soc", AreaMM2: 100, Node: "7nm"}},
		DRAM:    []scenario.DRAMSpec{{Name: "dram", Technology: "lpddr4", CapacityGB: 8}},
		Storage: []scenario.StorageSpec{{Name: "ssd", Technology: "1z-nand-tlc", CapacityGB: 256}},
		Usage:   scenario.UsageSpec{PowerW: 5, AppHours: 8766},
	}
}

// SpecMutants is the spec-level catalog. Field paths mirror the scenario
// package's Prefix re-rooting exactly; a path drifting here is itself a
// conformance break.
func SpecMutants() []SpecMutant {
	return []SpecMutant{
		{"empty-name", "name", func(s *scenario.Spec) { s.Name = "" }},
		{"no-components", "", func(s *scenario.Spec) { s.Logic, s.DRAM, s.Storage = nil, nil, nil }},
		{"unknown-node", "logic[0]", func(s *scenario.Spec) { s.Logic[0].Node = "quantum" }},
		{"node-below-range", "logic[0]", func(s *scenario.Spec) { s.Logic[0].Node = "1nm" }},
		{"node-above-range", "logic[0]", func(s *scenario.Spec) { s.Logic[0].Node = "90nm" }},
		{"negative-area", "logic[0].area_mm2", func(s *scenario.Spec) { s.Logic[0].AreaMM2 = -5 }},
		{"zero-area", "logic[0].area_mm2", func(s *scenario.Spec) { s.Logic[0].AreaMM2 = 0 }},
		{"negative-count", "logic[0].count", func(s *scenario.Spec) { s.Logic[0].Count = -2 }},
		{"abatement-below-range", "logic[0]", func(s *scenario.Spec) {
			s.Logic[0].Fab = &scenario.FabSpec{Abatement: 0.5}
		}},
		{"yield-above-one", "logic[0]", func(s *scenario.Spec) {
			s.Logic[0].Fab = &scenario.FabSpec{Yield: 1.5}
		}},
		{"negative-fab-intensity", "logic[0]", func(s *scenario.Spec) {
			s.Logic[0].Fab = &scenario.FabSpec{CarbonIntensity: -10}
		}},
		{"unknown-dram-tech", "dram[0].technology", func(s *scenario.Spec) { s.DRAM[0].Technology = "sram-9000" }},
		{"negative-dram-capacity", "dram[0].capacity_gb", func(s *scenario.Spec) { s.DRAM[0].CapacityGB = -8 }},
		{"unknown-storage-tech", "storage[0].technology", func(s *scenario.Spec) { s.Storage[0].Technology = "tape" }},
		{"negative-storage-capacity", "storage[0].capacity_gb", func(s *scenario.Spec) { s.Storage[0].CapacityGB = -1 }},
		{"zero-app-hours", "usage.app_hours", func(s *scenario.Spec) { s.Usage.AppHours = 0 }},
		{"negative-app-hours", "usage.app_hours", func(s *scenario.Spec) { s.Usage.AppHours = -100 }},
		{"app-hours-past-lifetime", "usage.app_hours", func(s *scenario.Spec) { s.Usage.AppHours = 1e6 }},
		{"negative-power", "usage.power_w", func(s *scenario.Spec) { s.Usage.PowerW = -1 }},
		{"negative-intensity", "usage.intensity_g_per_kwh", func(s *scenario.Spec) { s.Usage.IntensityGPerKWh = -300 }},
		{"pue-and-battery", "usage", func(s *scenario.Spec) {
			s.Usage.PUE = 1.5
			s.Usage.BatteryEfficiency = 0.9
		}},
		{"pue-below-one", "usage.pue", func(s *scenario.Spec) { s.Usage.PUE = 0.8 }},
		{"battery-above-one", "usage.battery_efficiency", func(s *scenario.Spec) { s.Usage.BatteryEfficiency = 1.2 }},
		{"negative-lifetime", "lifetime_years", func(s *scenario.Spec) { s.LifetimeYears = -1 }},
		{"unknown-transport-mode", "transport[0].mode", func(s *scenario.Spec) {
			s.Transport = []scenario.TransportSpec{{Name: "leg", MassKg: 1, DistanceKm: 100, Mode: "catapult"}}
		}},
		{"negative-transport-mass", "transport[0].mass_kg", func(s *scenario.Spec) {
			s.Transport = []scenario.TransportSpec{{Name: "leg", MassKg: -1, DistanceKm: 100, Mode: "air"}}
		}},
		{"negative-transport-distance", "transport[0].distance_km", func(s *scenario.Spec) {
			s.Transport = []scenario.TransportSpec{{Name: "leg", MassKg: 1, DistanceKm: -100, Mode: "air"}}
		}},
	}
}

// WireMutants is the raw-body catalog: envelope and parse failures that
// never reach the spec layer, plus the batch element path contract.
func WireMutants() []WireMutant {
	return []WireMutant{
		{"version-2", "", []byte(`{"version": 2, "name": "x", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`)},
		{"version-negative", "", []byte(`{"version": -3, "name": "x", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`)},
		{"unknown-field", "", []byte(`{"name": "x", "bogus": 1, "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}`)},
		{"truncated-json", "", []byte(`{"name": "x", "logic": [{"name": "soc"`)},
		{"scalar-body", "", []byte(`42`)},
		{"empty-body", "", []byte(``)},
		{"empty-batch", "", []byte(`[]`)},
		// Anything but whitespace after a single object is refused, as it
		// is after a batch array.
		{"trailing-data", "", []byte(`{"name": "x", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}} trailing junk`)},
		// A batch whose second element parses but fails evaluation: the
		// error must be re-rooted under the element index.
		{"batch-bad-element", "[1]", []byte(`[{"name": "ok", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}, {"name": "broken"}]`)},
		// Same, with a field inside the element: "[1]" composes with the
		// inner path.
		{"batch-bad-element-field", "[1].usage.app_hours", []byte(`[{"name": "ok", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": 100}}, {"name": "broken", "logic": [{"name": "soc", "area_mm2": 100, "node": "7nm"}], "usage": {"power_w": 5, "app_hours": -1}}]`)},
	}
}
