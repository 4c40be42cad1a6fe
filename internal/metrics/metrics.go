// Package metrics implements ACT's use-case dependent sustainability
// optimization metrics (Section 3.2, Table 2 of the paper). Two classic
// PPA-era metrics, energy-delay product (EDP) and energy-delay-area product
// (EDAP), are joined by four carbon-aware metrics:
//
//	CDP  = C·D   — balance embodied carbon and performance (data centers)
//	CEP  = C·E   — balance embodied carbon and energy (mobile)
//	C2EP = C²·E  — embodied-dominated systems (renewable-powered use)
//	CE2P = C·E²  — operational-dominated systems ("brown" energy use)
//
// where C is embodied carbon, D delay, E energy, and A area. All metrics
// are lower-is-better products over a Candidate design point.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"act/internal/units"
)

// Candidate is one hardware design point under evaluation.
type Candidate struct {
	Name string
	// Embodied is C, the design's embodied carbon footprint.
	Embodied units.CO2Mass
	// Energy is E, the energy consumed by the reference workload.
	Energy units.Energy
	// Delay is D, the execution time of the reference workload.
	Delay time.Duration
	// Area is A, the silicon area (used only by EDAP).
	Area units.Area
}

// Validate reports whether the candidate's fields are usable: strictly
// positive delay, non-negative everything else.
func (c Candidate) Validate() error {
	if c.Delay <= 0 {
		return fmt.Errorf("metrics: candidate %q: non-positive delay %v", c.Name, c.Delay)
	}
	if c.Energy < 0 || c.Embodied < 0 || c.Area < 0 {
		return fmt.Errorf("metrics: candidate %q: negative quantity", c.Name)
	}
	return nil
}

// maxDelaySeconds is the longest delay a Candidate holds: time.Duration's
// range in seconds.
const maxDelaySeconds = math.MaxInt64 / 1e9

// DelayFromSeconds converts a delay in seconds to a Candidate's Delay. A
// delay past time.Duration's range (or NaN) is an error: converting it
// would be implementation-defined and could wrap around to a negative
// duration.
func DelayFromSeconds(s float64) (time.Duration, error) {
	d := s * float64(time.Second)
	if !(d >= -0x1p63 && d < 0x1p63) {
		return 0, fmt.Errorf("metrics: delay %v s is outside time.Duration's range of ±%v s", s, float64(maxDelaySeconds))
	}
	return time.Duration(d), nil
}

// Metric identifies an optimization metric from Table 2.
type Metric string

// Metrics from Table 2 of the paper.
const (
	EDP  Metric = "EDP"
	EDAP Metric = "EDAP"
	CDP  Metric = "CDP"
	CEP  Metric = "CEP"
	C2EP Metric = "C2EP"
	CE2P Metric = "CE2P"
)

// All returns the metrics in Table 2 order.
func All() []Metric { return []Metric{EDP, EDAP, CDP, CEP, C2EP, CE2P} }

// CarbonAware returns only the four carbon metrics introduced by ACT.
func CarbonAware() []Metric { return []Metric{CDP, CEP, C2EP, CE2P} }

// UseCase returns the Table 2 use-case description for a metric.
func UseCase(m Metric) (string, error) {
	switch m {
	case EDP:
		return "Energy optimization (e.g., mobile)", nil
	case EDAP:
		return "Energy and cost optimization (e.g., mobile)", nil
	case CDP:
		return "Balance CO2 and perf. (e.g., sustainable data center)", nil
	case CEP:
		return "Balance CO2 and energy (e.g., sustainable mobile device)", nil
	case C2EP:
		return "Sustainable device dominated by embodied footprint", nil
	case CE2P:
		return "Sustainable device dominated by operational footprint", nil
	}
	return "", fmt.Errorf("metrics: unknown metric %q", m)
}

// Eval computes the metric value for a candidate in canonical units
// (grams, joules, seconds, mm²). Values are only meaningful relative to
// other candidates under the same metric; lower is better.
func Eval(m Metric, c Candidate) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	e := c.Energy.Joules()
	d := c.Delay.Seconds()
	cc := c.Embodied.Grams()
	a := c.Area.MM2()
	switch m {
	case EDP:
		return e * d, nil
	case EDAP:
		return e * d * a, nil
	case CDP:
		return cc * d, nil
	case CEP:
		return cc * e, nil
	case C2EP:
		return cc * cc * e, nil
	case CE2P:
		return cc * e * e, nil
	}
	return 0, fmt.Errorf("metrics: unknown metric %q", m)
}

// Scored pairs a candidate with its metric value.
type Scored struct {
	Candidate Candidate
	Value     float64
}

// Rank evaluates all candidates under a metric and returns them sorted
// best (lowest) first. Ties preserve input order.
//
// Each value is computed once; the sort then moves int32 indices, not
// Scored structs. slices.SortStableFunc runs the same insertion-block and
// symMerge algorithm as sort.SliceStable and asks only whether cmp < 0,
// so with a comparator that answers -1 exactly when a < b the order is
// the one a stable sort by < gives, NaN and ±Inf values included.
func Rank(m Metric, cs []Candidate) ([]Scored, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("metrics: no candidates")
	}
	vals := make([]float64, len(cs))
	idx := make([]int32, len(cs))
	for i, c := range cs {
		v, err := Eval(m, c)
		if err != nil {
			return nil, err
		}
		vals[i], idx[i] = v, int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		if vals[a] < vals[b] {
			return -1
		}
		return 0
	})
	out := make([]Scored, len(cs))
	for i, j := range idx {
		out[i] = Scored{Candidate: cs[j], Value: vals[j]}
	}
	return out, nil
}

// Best returns the candidate minimizing the metric.
func Best(m Metric, cs []Candidate) (Scored, error) {
	ranked, err := Rank(m, cs)
	if err != nil {
		return Scored{}, err
	}
	return ranked[0], nil
}

// Normalized evaluates candidates under a metric and scales the values so
// the named baseline candidate is 1.0, the presentation used by
// Figures 8(d) and 9 of the paper. The result preserves input order.
func Normalized(m Metric, cs []Candidate, baseline string) ([]Scored, error) {
	var base float64
	found := false
	for _, c := range cs {
		if c.Name == baseline {
			v, err := Eval(m, c)
			if err != nil {
				return nil, err
			}
			base, found = v, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("metrics: baseline candidate %q not present", baseline)
	}
	if base == 0 || math.IsInf(base, 0) || math.IsNaN(base) {
		return nil, fmt.Errorf("metrics: baseline %q has degenerate value %v", baseline, base)
	}
	out := make([]Scored, len(cs))
	for i, c := range cs {
		v, err := Eval(m, c)
		if err != nil {
			return nil, err
		}
		out[i] = Scored{Candidate: c, Value: v / base}
	}
	return out, nil
}
