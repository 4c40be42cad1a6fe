// Package act is the public API of this ACT reproduction: an architectural
// carbon modeling tool for estimating and optimizing the operational and
// embodied carbon footprint of computer systems (Gupta et al., ISCA 2022).
//
// The model is
//
//	CF = OPCF + (T/LT)·ECF
//
// where OPCF is operational carbon (energy × use-phase carbon intensity)
// and ECF is embodied carbon aggregated bottom-up over a device's ICs:
// logic dies (area × fab carbon-per-area), DRAM and storage (capacity ×
// carbon-per-GB) and per-IC packaging.
//
// Quick start:
//
//	f, _ := act.NewFab(act.Node7)
//	soc, _ := act.NewLogic("SoC", act.MM2(98.5), f, 1)
//	ram, _ := act.NewDRAM("DRAM", act.LPDDR4, act.Gigabytes(4))
//	dev, _ := act.NewDevice("phone")
//	dev.AddLogic(soc).AddDRAM(ram)
//	usage := act.UsageFromPower(act.Watts(3), time.Hour, act.USGrid)
//	a, _ := act.Footprint(dev, usage, time.Hour, act.YearsDuration(3))
//	fmt.Println(a.Total())
//
// The facade re-exports the library's building blocks; the case-study
// models (mobile SoC catalog, NVDLA-style accelerator, SSD reliability,
// device replacement, provisioning) and the paper-artifact regeneration
// harness live in the internal packages and are exercised by the example
// programs under examples/ and the benchmarks in bench_test.go.
package act

import (
	"time"

	"act/internal/acterr"
	"act/internal/core"
	"act/internal/dse"
	"act/internal/fab"
	"act/internal/intensity"
	"act/internal/memdb"
	"act/internal/metrics"
	"act/internal/storagedb"
	"act/internal/units"
)

// Quantity types (see internal/units for canonical units and methods).
type (
	// CO2Mass is a mass of CO2-equivalent emissions (grams canonical).
	CO2Mass = units.CO2Mass
	// Energy is an amount of energy (joules canonical).
	Energy = units.Energy
	// Power is a power draw (watts canonical).
	Power = units.Power
	// Area is a silicon area (mm² canonical).
	Area = units.Area
	// Capacity is a memory/storage capacity (GB canonical).
	Capacity = units.Capacity
	// CarbonIntensity is carbon per energy generated (g CO2/kWh).
	CarbonIntensity = units.CarbonIntensity
)

// Quantity constructors.
var (
	Grams         = units.Grams
	Kilograms     = units.Kilograms
	Tonnes        = units.Tonnes
	Joules        = units.Joules
	Millijoules   = units.Millijoules
	KilowattHours = units.KilowattHours
	Watts         = units.Watts
	Milliwatts    = units.Milliwatts
	MM2           = units.MM2
	CM2           = units.CM2
	Gigabytes     = units.Gigabytes
	Terabytes     = units.Terabytes
	GramsPerKWh   = units.GramsPerKWh
)

// YearsDuration converts fractional years to a time.Duration (Julian
// years), the convention for hardware lifetimes.
func YearsDuration(y float64) time.Duration { return units.Years(y) }

// Model types.
type (
	// Device is a hardware bill of materials.
	Device = core.Device
	// Logic is a logic die (SoC, co-processor, ...).
	Logic = core.Logic
	// DRAM is a DRAM module.
	DRAM = core.DRAM
	// Storage is an SSD or HDD.
	Storage = core.Storage
	// Usage is the operational side of an assessment.
	Usage = core.Usage
	// Assessment is an end-to-end footprint evaluation.
	Assessment = core.Assessment
	// Breakdown is a per-IC embodied footprint itemization.
	Breakdown = core.Breakdown
	// Fab describes a semiconductor fab (node, energy, abatement, yield).
	Fab = fab.Fab
	// FabNode identifies a characterized process node.
	FabNode = fab.Node
	// DRAMTechnology identifies a characterized DRAM technology.
	DRAMTechnology = memdb.Technology
	// StorageTechnology identifies a characterized storage technology.
	StorageTechnology = storagedb.Technology
	// Metric is a Table 2 optimization metric.
	Metric = metrics.Metric
	// Candidate is a design point under metric evaluation.
	Candidate = metrics.Candidate
)

// Model constructors and entry points.
var (
	// NewDevice creates an empty bill of materials.
	NewDevice = core.NewDevice
	// NewLogic describes logic dies in a fab.
	NewLogic = core.NewLogic
	// NewDRAM describes a DRAM module.
	NewDRAM = core.NewDRAM
	// NewStorage describes a storage drive.
	NewStorage = core.NewStorage
	// NewFab builds a fab with the paper's defaults; override with
	// WithCarbonIntensity / WithAbatement / WithYield / WithMPA.
	NewFab = fab.New
	// Fab options.
	WithCarbonIntensity = fab.WithCarbonIntensity
	WithAbatement       = fab.WithAbatement
	WithYield           = fab.WithYield
	WithMPA             = fab.WithMPA
	// Embodied computes a device's itemized embodied footprint (Eq. 3).
	Embodied = core.Embodied
	// Operational computes OPCF (Eq. 2).
	Operational = core.Operational
	// Footprint evaluates the full model (Eq. 1).
	Footprint = core.Footprint
	// LifetimeFootprint evaluates a device over its whole lifetime.
	LifetimeFootprint = core.LifetimeFootprint
	// UsageFromPower builds a Usage from power × time at an intensity.
	UsageFromPower = core.UsageFromPower
	// EvalMetric computes a Table 2 metric for a candidate.
	EvalMetric = metrics.Eval
	// BestByMetric returns the candidate minimizing a metric.
	BestByMetric = metrics.Best
	// ParseNode resolves "7nm", "16nm", "7nm-euv" to a characterized node.
	ParseNode = fab.ParseNode
)

// Process nodes (Table 7).
const (
	Node28     = fab.Node28
	Node20     = fab.Node20
	Node14     = fab.Node14
	Node10     = fab.Node10
	Node7      = fab.Node7
	Node7EUV   = fab.Node7EUV
	Node7EUVDP = fab.Node7EUVDP
	Node5      = fab.Node5
	Node3      = fab.Node3
)

// DRAM technologies (Table 9).
const (
	DDR3_50nm   = memdb.DDR3_50nm
	DDR3_40nm   = memdb.DDR3_40nm
	DDR3_30nm   = memdb.DDR3_30nm
	LPDDR3_30nm = memdb.LPDDR3_30nm
	LPDDR3_20nm = memdb.LPDDR3_20nm
	LPDDR2_20nm = memdb.LPDDR2_20nm
	LPDDR4      = memdb.LPDDR4
	DDR4_10nm   = memdb.DDR4_10nm
)

// Storage technologies (Tables 10-11, most common entries; see
// internal/storagedb for the full set).
const (
	NAND30nm  = storagedb.NAND30nm
	NAND20nm  = storagedb.NAND20nm
	NAND10nm  = storagedb.NAND10nm
	NAND1zTLC = storagedb.NAND1zTLC
	NANDV3TLC = storagedb.NANDV3TLC
	BarraCuda = storagedb.BarraCuda
	Exosx16   = storagedb.Exosx16
)

// Optimization metrics (Table 2).
const (
	EDP  = metrics.EDP
	EDAP = metrics.EDAP
	CDP  = metrics.CDP
	CEP  = metrics.CEP
	C2EP = metrics.C2EP
	CE2P = metrics.CE2P
)

// Named carbon intensities (Tables 5-6 and the paper's scenarios).
var (
	// USGrid is the rounded US average (300 g CO2/kWh) used by Table 4.
	USGrid = intensity.USGrid
	// TaiwanGrid is the Taiwanese grid, the default fab location.
	TaiwanGrid = intensity.TaiwanGrid
	// SolarIntensity is solar generation (41 g CO2/kWh).
	SolarIntensity = intensity.Renewable
	// CarbonFree is idealized zero-carbon energy.
	CarbonFree = intensity.CarbonFree
	// DefaultFabIntensity is the paper's default fab supply: Taiwan grid
	// blended with 25% renewable energy.
	DefaultFabIntensity = intensity.DefaultFab()
)

// PackagingFootprint is Kr, the per-IC packaging footprint.
const PackagingFootprint = core.PackagingFootprint

// Life-cycle extension types (Figure 3 phases, Figure 5 utilization
// effectiveness).
type (
	// LifeCycle is a device's complete four-phase footprint input.
	LifeCycle = core.LifeCycle
	// PhaseReport is a footprint split by life-cycle phase.
	PhaseReport = core.PhaseReport
	// TransportLeg is one shipment step.
	TransportLeg = core.TransportLeg
	// EndOfLife describes recycling/disposal.
	EndOfLife = core.EndOfLife
	// EffectiveUsage is Usage scaled by PUE or battery efficiency.
	EffectiveUsage = core.EffectiveUsage
)

// Life-cycle phases and transport modes.
const (
	PhaseManufacturing = core.PhaseManufacturing
	PhaseTransport     = core.PhaseTransport
	PhaseUse           = core.PhaseUse
	PhaseEndOfLife     = core.PhaseEndOfLife
	TransportAir       = core.TransportAir
	TransportSea       = core.TransportSea
	TransportRoad      = core.TransportRoad
	TransportRail      = core.TransportRail
)

// Life-cycle and effectiveness entry points.
var (
	// WithPUE scales a usage by a datacenter PUE (≥ 1).
	WithPUE = core.PUE
	// WithBatteryEfficiency scales a usage by a charging efficiency.
	WithBatteryEfficiency = core.BatteryEfficiency
	// Phases lists the four life-cycle phases in order.
	Phases = core.Phases
)

// Typed validation errors. Constructors and the CLI/service surface them
// with errors.Is / errors.As; every scenario- and constructor-level failure
// a caller can fix by editing their input matches one of these.
type (
	// InvalidSpecError reports a validation failure at a field path
	// ("logic[0].area_mm2").
	InvalidSpecError = acterr.InvalidSpecError
	// UnsupportedVersionError reports a scenario envelope version this
	// library does not speak.
	UnsupportedVersionError = acterr.UnsupportedVersionError
)

var (
	// ErrUnknownNode matches (via errors.Is) failures to resolve a process
	// node or memory/storage technology name.
	ErrUnknownNode = acterr.ErrUnknownNode
	// ErrUnsupportedVersion matches (via errors.Is) scenario envelope
	// versions other than 1.
	ErrUnsupportedVersion = acterr.ErrUnsupportedVersion
	// IsInvalidSpec reports whether an error is a client-fixable input
	// problem (invalid field, unknown node, unsupported version).
	IsInvalidSpec = acterr.IsInvalid
)

// Design-space exploration types (Section 7 case studies).
type (
	// Objective extracts a lower-is-better scalar from a candidate.
	Objective = dse.Objective
	// MetricRanking pairs a Table 2 metric with its ranked candidates.
	MetricRanking = dse.MetricRanking
	// Scored is a candidate with its metric value.
	Scored = metrics.Scored
)

// Design-space exploration entry points.
var (
	// ParetoFrontier reduces candidates to the non-dominated set under the
	// given objectives.
	ParetoFrontier = dse.ParetoFrontier
	// ParetoFrontierCtx is ParetoFrontier with cancellation: a done ctx
	// stops the reduction (large frontiers fan out across the worker pool).
	ParetoFrontierCtx = dse.ParetoFrontierCtx
	// RankAllOrdered ranks candidates under every Table 2 metric, in
	// metrics.All() order.
	RankAllOrdered = dse.RankAllOrdered
	// MetricObjective wraps a Table 2 metric as an objective.
	MetricObjective = dse.MetricObjective
	// Built-in lower-is-better objectives over the candidate axes.
	ObjectiveEmbodied = dse.Embodied
	ObjectiveEnergy   = dse.Energy
	ObjectiveDelay    = dse.Delay
	ObjectiveArea     = dse.Area
)
