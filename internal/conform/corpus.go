// Seeded scenario-corpus generation. The conformance harness does not test
// hand-picked goldens: it generates a deterministic corpus of valid
// scenarios spanning every characterized table — Table 7 process nodes
// (exact names, snap forms, case variants), Table 9 DRAM and Table 10/11
// storage technologies (alias spellings included), Table 6 grid
// intensities, lifetimes, duty cycles, fab overrides, transport legs and
// end-of-life data — plus a catalog of near-valid mutants, each one edit
// away from a valid scenario, for error-path classification.
//
// Determinism matters more than distribution here: the same (seed, index)
// always yields the same scenario, whatever order or worker evaluates it,
// so a diverging index from CI reproduces locally byte-for-byte. Each index
// owns an independent SplitMix64 stream, seeded by the SplitMix64
// finalizer over the corpus seed plus (index+1) golden-ratio increments.

package conform

import (
	"fmt"
	"math"

	"act/internal/scenario"
)

// rng is a SplitMix64 stream, the minimal deterministic generator the
// corpus needs. Streams are derived per scenario index so generation order
// never matters.
type rng struct{ state uint64 }

// newStream derives the independent stream of index i from the corpus
// seed: the SplitMix64 finalizer applied to seed + (i+1)·0x9e3779b97f4a7c15,
// so each index has its own stream and none depends on another.
func newStream(seed uint64, i int) *rng {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &rng{state: z ^ (z >> 31)}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangef draws from [lo, hi] rounded to 3 decimals, so the value survives
// a JSON round trip with its shortest decimal representation unchanged.
func (r *rng) rangef(lo, hi float64) float64 {
	v := lo + r.float64()*(hi-lo)
	return math.Round(v*1000) / 1000
}

func (r *rng) pick(list []string) string { return list[r.intn(len(list))] }

// The name pools deliberately mix canonical table names, snap forms and
// alias spellings: every surface must agree on the resolved entry, not just
// on clean input.
var (
	nodePool = []string{
		"28nm", "20nm", "14nm", "10nm", "7nm", "7nm-euv", "7nm-euv-dp", "5nm", "3nm", // Table 7 verbatim
		"16nm", "12nm", "8nm", "6nm", "4nm", "40", // snap forms via fab.Resolve
		"7NM", " 5nm ", // case/space variants via fab.ParseNode
	}
	dramPool = []string{
		"50nm-ddr3", "40nm-ddr3", "30nm-ddr3", "30nm-lpddr3", "20nm-lpddr3", "20nm-lpddr2", "lpddr4", "10nm-ddr4", // Table 9 verbatim
		"LPDDR4", "10nm DDR4", "1Xnm DDR4", "1znm ddr4", "ddr3-50nm", "lpddr4x", // memdb.Parse aliases
	}
	storagePool = []string{
		"30nm-nand", "20nm-nand", "10nm-nand", "1z-nand-tlc", "v3-nand-tlc", // Table 10 SSDs
		"wd-2016", "wd-2017", "wd-2018", "wd-2019", "nytro-1551", "nytro-3530", "nytro-3331",
		"V3 TLC", "30nm NAND", "Seagate Nytro 3530", "Western Digital 2019", // storagedb.Parse aliases
		"barracuda", "barracuda2", "barracuda-pro", "firecuda", "firecuda2", // Table 11 HDDs
		"exos2x14", "exosx12", "exosx16", "exos15e900", "exos10e2400",
		"BarraCuda Pro", "FireCuda 2", // description-form aliases
	}
	modePool = []string{"air", "sea", "road", "rail", "Air", "ROAD", " rail "}
	// regionPool spans Table 6 for the fleet refold (fleet.StaticRegions
	// canonicalizes case and space).
	regionPool = []string{
		"world", "india", "australia", "taiwan", "singapore",
		"united-states", "europe", "brazil", "iceland",
		"United-States", " europe ",
	}
	// usedIntensityPool mirrors Table 5/6 values plus the paper's named
	// scenario intensities for usage.intensity_g_per_kwh.
	usedIntensityPool = []float64{820, 490, 301, 300, 380, 82, 41, 28, 11}
)

// GenerateCorpus returns n valid scenarios derived deterministically from
// seed. Scenario i depends only on (seed, i).
func GenerateCorpus(seed uint64, n int) []*scenario.Spec {
	out := make([]*scenario.Spec, n)
	for i := range out {
		out[i] = generate(seed, i)
	}
	return out
}

// generate builds the valid scenario of one stream.
func generate(seed uint64, i int) *scenario.Spec {
	r := newStream(seed, i)
	s := &scenario.Spec{Name: fmt.Sprintf("conform-%06d", i)}

	// Lifetime: mostly the 3-year default; otherwise an explicit horizon.
	// The exact-amortization sub-case (T = LT) uses half-integer lifetimes
	// whose hour totals are exact in float64, so the appTime == lifetime
	// comparison cannot wobble across a JSON round trip.
	exactLifetimes := []float64{0.5, 1, 2, 3, 5}
	fullAmortization := r.float64() < 0.05
	if fullAmortization {
		s.LifetimeYears = exactLifetimes[r.intn(len(exactLifetimes))]
	} else if r.float64() < 0.4 {
		s.LifetimeYears = r.rangef(0.5, 8)
	}
	ltHours := s.Lifetime() * 365.25 * 24

	nLogic, nDRAM, nStorage := r.intn(3), r.intn(3), r.intn(3)
	if nLogic+nDRAM+nStorage == 0 {
		nLogic = 1
	}
	for j := 0; j < nLogic; j++ {
		l := scenario.LogicSpec{
			Name:    fmt.Sprintf("die-%d", j),
			AreaMM2: r.rangef(1, 800),
			Node:    r.pick(nodePool),
		}
		if r.float64() < 0.3 {
			l.Count = 1 + r.intn(8)
		}
		if r.float64() < 0.4 {
			f := scenario.FabSpec{}
			if r.float64() < 0.5 {
				f.CarbonIntensity = r.rangef(10, 800)
			}
			if r.float64() < 0.5 {
				f.Abatement = r.rangef(0.95, 0.99)
			}
			if r.float64() < 0.5 {
				f.Yield = r.rangef(0.5, 1)
			}
			if f != (scenario.FabSpec{}) {
				l.Fab = &f
			}
		}
		s.Logic = append(s.Logic, l)
	}
	for j := 0; j < nDRAM; j++ {
		s.DRAM = append(s.DRAM, scenario.DRAMSpec{
			Name:       fmt.Sprintf("dram-%d", j),
			Technology: r.pick(dramPool),
			CapacityGB: r.rangef(1, 2048),
		})
	}
	for j := 0; j < nStorage; j++ {
		s.Storage = append(s.Storage, scenario.StorageSpec{
			Name:       fmt.Sprintf("drive-%d", j),
			Technology: r.pick(storagePool),
			CapacityGB: r.rangef(8, 16384),
		})
	}
	if r.float64() < 0.3 {
		s.ExtraICs = 1 + r.intn(12)
	}

	s.Usage.PowerW = r.rangef(0.5, 600)
	if fullAmortization {
		s.Usage.AppHours = ltHours // exact: T = LT, full ECF attribution
	} else {
		// Duty fraction capped below 1 so 3-decimal rounding cannot push
		// app_hours past the lifetime.
		s.Usage.AppHours = math.Round(r.rangef(0.001, 0.95)*ltHours*1000) / 1000
		if s.Usage.AppHours <= 0 {
			s.Usage.AppHours = 1
		}
	}
	if r.float64() < 0.5 {
		s.Usage.IntensityGPerKWh = usedIntensityPool[r.intn(len(usedIntensityPool))]
	}
	switch r.intn(3) {
	case 0:
		s.Usage.PUE = r.rangef(1.02, 2)
	case 1:
		s.Usage.BatteryEfficiency = r.rangef(0.5, 1)
	}

	if r.float64() < 0.4 {
		legs := 1 + r.intn(3)
		for j := 0; j < legs; j++ {
			s.Transport = append(s.Transport, scenario.TransportSpec{
				Name:       fmt.Sprintf("leg-%d", j),
				MassKg:     r.rangef(0.05, 40),
				DistanceKm: r.rangef(10, 15000),
				Mode:       r.pick(modePool),
			})
		}
	}
	if r.float64() < 0.3 {
		s.EndOfLife = &scenario.EndOfLifeSpec{
			ProcessingKg:      r.rangef(0, 5),
			RecyclingCreditKg: r.rangef(0, 3),
		}
	}
	return s
}

// utilization returns the deterministic fleet utilization of scenario i —
// drawn from a stream offset so it does not perturb the scenario draws.
func utilization(seed uint64, i int) float64 {
	r := newStream(seed^0x75746c7a, i)
	return r.rangef(0.05, 1)
}

// region returns the deterministic fleet deployment region of scenario i.
func region(seed uint64, i int) string {
	r := newStream(seed^0x7267696f, i)
	return r.pick(regionPool)
}
