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
// Each value is computed once and the sort moves int32 indices. Without a
// NaN, < is a total order, and radixOrder's stable sort over rankKey gives
// the order any stable sort by < gives. With one, the order is whatever
// the stable merge sort makes of <, so an input holding a NaN keeps
// slices.SortStableFunc, the insertion-block and symMerge code of
// sort.SliceStable, with a comparator that answers -1 exactly when a < b.
func Rank(m Metric, cs []Candidate) ([]Scored, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("metrics: no candidates")
	}
	vals := make([]float64, len(cs))
	keys := make([]uint64, len(cs))
	idx := make([]int32, 2*len(cs)) // the second half is radixOrder's scratch
	nan := false
	for i, c := range cs {
		v, err := Eval(m, c)
		if err != nil {
			return nil, err
		}
		vals[i], keys[i], idx[i] = v, rankKey(v), int32(i)
		nan = nan || math.IsNaN(v)
	}
	if nan {
		idx = idx[:len(cs)]
		slices.SortStableFunc(idx, func(a, b int32) int {
			if vals[a] < vals[b] {
				return -1
			}
			return 0
		})
	} else {
		idx = radixOrder(idx[:len(cs)], idx[len(cs):], keys)
	}
	out := make([]Scored, len(cs))
	for i, j := range idx {
		out[i] = Scored{Candidate: cs[j], Value: vals[j]}
	}
	return out, nil
}

// rankKey maps a non-NaN v to a key whose unsigned order is v's order
// under <: a set sign bit flips every bit, a clear one sets the sign bit.
// −0 folds onto +0, the one pair of distinct bits that < ties.
func rankKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixOrder stable-sorts idx by keys[idx[i]], one byte per pass from the
// least significant up. One scan counts all eight digits; a pass whose
// digit every key shares moves nothing and is skipped. It returns the
// sorted indices, which sit in idx or in tmp, a scratch slice as long.
func radixOrder(idx, tmp []int32, keys []uint64) []int32 {
	var count [8][256]int32
	for _, k := range keys {
		for p := range count {
			count[p][byte(k>>(8*p))]++
		}
	}
	for p := range count {
		c := &count[p]
		shift := 8 * p
		if c[byte(keys[0]>>shift)] == int32(len(keys)) {
			continue
		}
		var sum int32
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, j := range idx {
			d := byte(keys[j] >> shift)
			tmp[c[d]] = j
			c[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx
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
