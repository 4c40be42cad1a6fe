// Package accel is an analytical model of an NVDLA-style neural processing
// unit, the subject of the paper's Reduce case study (Section 7, Figures
// 12-13). A design point is a MAC-array size (64-2048 MACs in powers of
// two, following the paper's sweep) in a 16 nm or 28 nm process.
//
// The model has three parts:
//
//   - Area: overhead + per-MAC array area, per process node. With the fab
//     model's carbon-per-area this yields embodied carbon.
//   - Performance: throughput scales with MAC count, derated by a
//     utilization roll-off (wider arrays are harder to keep busy):
//     FPS(m) = m / (k·(1 + m/cUtil)).
//   - Energy per frame: a U-shaped curve E(m) = e·(A + B/m + m). The B/m
//     term models static energy and DRAM traffic dominating small arrays
//     (longer frames, less on-chip reuse); the linear term models array
//     leakage and clocking dominating wide, underutilized arrays.
//
// Constants are calibrated against the paper's reported outcomes rather
// than RTL synthesis (which is not public): the carbon-optimal 30-FPS
// design is 256 MACs at ≈14-16 g CO2; the performance- and energy-optimal
// designs incur ≈3.3x and ≈1.3-1.4x higher embodied carbon; the Figure 12
// metric optima land at 2048 (perf, EDP), 1024 (CDP), 512 (CE2P), 256
// (CEP) and 128 (C2EP) MACs; and the fixed-area-budget comparison of
// Figure 13 (right) shows 16 nm designs carrying ≈33% (1 mm²) and ≈28%
// (2 mm²) more embodied carbon than 28 nm ones — the Jevons effect.
package accel

import (
	"context"
	"fmt"
	"sync"
	"time"

	"act/internal/fab"
	"act/internal/metrics"
	"act/internal/parsweep"
	"act/internal/units"
)

// Process identifies a supported accelerator process node.
type Process string

// Supported processes. The paper studies a 16 nm NVDLA and compares
// against 28 nm; 16 nm resolves to the characterized 14 nm fab class.
const (
	Process16nm Process = "16nm"
	Process28nm Process = "28nm"
)

// Processes returns the supported processes.
func Processes() []Process { return []Process{Process16nm, Process28nm} }

// areaParams hold the per-node linear area model in mm².
type areaParams struct {
	base   float64 // fixed overhead: buffers, sequencer, interfaces
	perMAC float64 // incremental array area per MAC
}

var areaTable = map[Process]areaParams{
	Process16nm: {base: 0.667, perMAC: 0.00127},
	Process28nm: {base: 0.554, perMAC: 0.002367},
}

// perfParams hold the per-node performance/energy scaling.
type perfParams struct {
	freqScale   float64 // relative clock vs the 16 nm design
	energyScale float64 // relative energy per frame vs 16 nm
}

var perfTable = map[Process]perfParams{
	Process16nm: {freqScale: 1.0, energyScale: 1.0},
	Process28nm: {freqScale: 0.7, energyScale: 1.7},
}

// Performance and energy calibration constants (16 nm reference).
const (
	// delayK and cUtil set FPS(m) = m / (delayK·(1+m/cUtil)); calibrated
	// so the 256-MAC design delivers ≈33 FPS.
	delayK = 7.127
	cUtil  = 2896
	// Energy per frame E(m) = energyUnit·(energyA + energyB/m + m) joules.
	energyA    = 1800
	energyB    = 400000
	energyUnit = 1.617e-6
)

// MAC sweep bounds. The paper sweeps 64-2048 in powers of two; the model
// accepts any count in [MinMACs, MaxMACs].
const (
	MinMACs = 16
	MaxMACs = 8192
)

// Model evaluates designs against configurable fabs (one per process).
// The zero Model is not usable; construct with NewModel. A Model is safe
// for concurrent use: the fab map is read-only after construction, and the
// candidate cache is a sync.Map.
type Model struct {
	fabs map[Process]*fab.Fab
	// cands memoizes fully evaluated candidates per design point. A design
	// is pure given its (MACs, Process) key and the model's fabs, so a 10k-
	// point exploration computes each distinct point once across all
	// goroutines.
	cands sync.Map // designKey -> metrics.Candidate
}

// designKey identifies a design point within one Model's cache.
type designKey struct {
	macs int
	p    Process
}

// NewModel builds a model with the paper's default fab for each process
// (Taiwan grid + 25% renewable, 95% abatement, yield 0.875).
func NewModel() (*Model, error) {
	f16, err := fab.New(fab.Node14)
	if err != nil {
		return nil, err
	}
	f28, err := fab.New(fab.Node28)
	if err != nil {
		return nil, err
	}
	return &Model{fabs: map[Process]*fab.Fab{
		Process16nm: f16,
		Process28nm: f28,
	}}, nil
}

// NewModelWithFabs builds a model with explicit fabs, for scenario studies
// that vary CIfab, abatement, or yield.
func NewModelWithFabs(f16, f28 *fab.Fab) (*Model, error) {
	if f16 == nil || f28 == nil {
		return nil, fmt.Errorf("accel: nil fab")
	}
	return &Model{fabs: map[Process]*fab.Fab{
		Process16nm: f16,
		Process28nm: f28,
	}}, nil
}

// Design is one evaluated accelerator configuration.
type Design struct {
	MACs    int
	Process Process
	model   *Model
}

// Design validates and binds a configuration to the model.
func (m *Model) Design(macs int, p Process) (Design, error) {
	if _, ok := areaTable[p]; !ok {
		return Design{}, fmt.Errorf("accel: unknown process %q", p)
	}
	if macs < MinMACs || macs > MaxMACs {
		return Design{}, fmt.Errorf("accel: MAC count %d outside [%d, %d]", macs, MinMACs, MaxMACs)
	}
	return Design{MACs: macs, Process: p, model: m}, nil
}

// Sweep returns the paper's design sweep: 64-2048 MACs in powers of two.
func (m *Model) Sweep(p Process) ([]Design, error) {
	var out []Design
	for macs := 64; macs <= 2048; macs *= 2 {
		d, err := m.Design(macs, p)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// SweepAll returns the paper's design sweep crossed with every supported
// process — MAC counts × process nodes, processes in Processes() order —
// the fan-out unit of the parallel exploration drivers.
func (m *Model) SweepAll() ([]Design, error) {
	var out []Design
	for _, p := range Processes() {
		sweep, err := m.Sweep(p)
		if err != nil {
			return nil, err
		}
		out = append(out, sweep...)
	}
	return out, nil
}

// SweepRange returns designs for every MAC count in [lo, hi] with the given
// stride, for one process — the dense exploration grid the parallel engine
// is sized for (the paper's powers-of-two sweep is the sparse special
// case).
func (m *Model) SweepRange(p Process, lo, hi, step int) ([]Design, error) {
	if step <= 0 {
		return nil, fmt.Errorf("accel: non-positive sweep step %d", step)
	}
	if lo > hi {
		return nil, fmt.Errorf("accel: inverted sweep range [%d, %d]", lo, hi)
	}
	var out []Design
	for macs := lo; macs <= hi; macs += step {
		d, err := m.Design(macs, p)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Name labels the design.
func (d Design) Name() string {
	return fmt.Sprintf("nvdla-%dmac-%s", d.MACs, d.Process)
}

// Area returns the die area of the design.
func (d Design) Area() units.Area {
	ap := areaTable[d.Process]
	return units.MM2(ap.base + ap.perMAC*float64(d.MACs))
}

// Embodied returns the embodied carbon of manufacturing the accelerator
// die (packaging excluded: the NPU ships inside a host SoC package).
func (d Design) Embodied() (units.CO2Mass, error) {
	return d.model.fabs[d.Process].Embodied(d.Area())
}

// FPS returns the design's inference throughput on the reference image-
// processing workload.
func (d Design) FPS() float64 {
	m := float64(d.MACs)
	return m / (delayK * (1 + m/cUtil)) * perfTable[d.Process].freqScale
}

// Delay returns the per-frame latency.
func (d Design) Delay() time.Duration {
	return time.Duration(float64(time.Second) / d.FPS())
}

// EnergyPerFrame returns the energy of one inference.
func (d Design) EnergyPerFrame() units.Energy {
	m := float64(d.MACs)
	e := energyUnit * (energyA + energyB/m + m)
	return units.Joules(e * perfTable[d.Process].energyScale)
}

// AvgPower returns the implied average power at full throughput.
func (d Design) AvgPower() units.Power {
	return units.Watts(d.EnergyPerFrame().Joules() * d.FPS())
}

// Candidate converts the design into a metrics candidate over one frame.
// The result is memoized in the owning Model, so repeated evaluations of
// the same design point (Pareto scans, metric rankings, QoS searches) hit
// the cache.
func (d Design) Candidate() (metrics.Candidate, error) {
	key := designKey{d.MACs, d.Process}
	if v, ok := d.model.cands.Load(key); ok {
		return v.(metrics.Candidate), nil
	}
	e, err := d.Embodied()
	if err != nil {
		return metrics.Candidate{}, err
	}
	c := metrics.Candidate{
		Name:     d.Name(),
		Embodied: e,
		Energy:   d.EnergyPerFrame(),
		Delay:    d.Delay(),
		Area:     d.Area(),
	}
	d.model.cands.Store(key, c)
	return c, nil
}

// Candidates converts a sweep into metrics candidates.
func Candidates(designs []Design) ([]metrics.Candidate, error) {
	out := make([]metrics.Candidate, len(designs))
	for i, d := range designs {
		c, err := d.Candidate()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// CandidatesParallel converts designs into metrics candidates across a
// bounded worker pool. The output is identical to Candidates — same values,
// same input-preserving order — for any worker count; workers ≤ 0 selects
// GOMAXPROCS.
func CandidatesParallel(ctx context.Context, workers int, designs []Design) ([]metrics.Candidate, error) {
	return parsweep.MapErrCtx(ctx, workers, designs, func(_ context.Context, _ int, d Design) (metrics.Candidate, error) {
		return d.Candidate()
	})
}

// QoSOptimal returns the sweep design with minimum embodied carbon that
// still meets the FPS target — the paper's "leaner systems under QoS"
// optimization (Figure 13, left).
func (m *Model) QoSOptimal(p Process, minFPS float64) (Design, error) {
	if minFPS <= 0 {
		return Design{}, fmt.Errorf("accel: non-positive QoS target %v", minFPS)
	}
	sweep, err := m.Sweep(p)
	if err != nil {
		return Design{}, err
	}
	best := Design{}
	bestEmbodied := -1.0
	for _, d := range sweep {
		if d.FPS() < minFPS {
			continue
		}
		e, err := d.Embodied()
		if err != nil {
			return Design{}, err
		}
		if bestEmbodied < 0 || e.Grams() < bestEmbodied {
			best, bestEmbodied = d, e.Grams()
		}
	}
	if bestEmbodied < 0 {
		return Design{}, fmt.Errorf("accel: no %s sweep design meets %v FPS", p, minFPS)
	}
	return best, nil
}

// BudgetOptimal returns the most parallel sweep design fitting an area
// budget — the resource-constrained optimization of Figure 13 (right).
func (m *Model) BudgetOptimal(p Process, budget units.Area) (Design, error) {
	if budget <= 0 {
		return Design{}, fmt.Errorf("accel: non-positive area budget %v", budget)
	}
	sweep, err := m.Sweep(p)
	if err != nil {
		return Design{}, err
	}
	best := Design{}
	found := false
	for _, d := range sweep {
		if d.Area() <= budget {
			best, found = d, true // sweep is ascending in MACs and area
		}
	}
	if !found {
		return Design{}, fmt.Errorf("accel: no %s sweep design fits %v", p, budget)
	}
	return best, nil
}

// MetricOptimal returns the sweep design minimizing a metric.
func (m *Model) MetricOptimal(p Process, metric metrics.Metric) (Design, error) {
	sweep, err := m.Sweep(p)
	if err != nil {
		return Design{}, err
	}
	cands, err := Candidates(sweep)
	if err != nil {
		return Design{}, err
	}
	best, err := metrics.Best(metric, cands)
	if err != nil {
		return Design{}, err
	}
	for _, d := range sweep {
		if d.Name() == best.Candidate.Name {
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("accel: winner %q not in sweep", best.Candidate.Name)
}

// PerfOptimal returns the sweep design with maximum throughput.
func (m *Model) PerfOptimal(p Process) (Design, error) {
	sweep, err := m.Sweep(p)
	if err != nil {
		return Design{}, err
	}
	best := sweep[0]
	for _, d := range sweep[1:] {
		if d.FPS() > best.FPS() {
			best = d
		}
	}
	return best, nil
}

// EnergyOptimal returns the sweep design with minimum energy per frame.
func (m *Model) EnergyOptimal(p Process) (Design, error) {
	sweep, err := m.Sweep(p)
	if err != nil {
		return Design{}, err
	}
	best := sweep[0]
	for _, d := range sweep[1:] {
		if d.EnergyPerFrame() < best.EnergyPerFrame() {
			best = d
		}
	}
	return best, nil
}
