package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"act/internal/units"
)

// oracleRank is Rank as it was before it sorted indices: every Scored
// struct built up front, then sort.SliceStable by Value. The index sort
// must reproduce its order exactly.
func oracleRank(m Metric, cs []Candidate) ([]Scored, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("metrics: no candidates")
	}
	out := make([]Scored, len(cs))
	for i, c := range cs {
		v, err := Eval(m, c)
		if err != nil {
			return nil, err
		}
		out[i] = Scored{Candidate: c, Value: v}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, nil
}

// differentialSet draws n candidates whose metric values tie, repeat
// whole candidates, reach +Inf (1e300·1e300), NaN (0·Inf in C2EP and
// CE2P) and −0 (a −0 quantity, which Validate admits, times a positive
// one), so every comparison case of the sort is exercised.
func differentialSet(rng *rand.Rand, n int) []Candidate {
	pick := func() float64 {
		switch rng.Intn(9) {
		case 8:
			return math.Copysign(0, -1)
		case 0:
			return 0
		case 1:
			return 1e300
		case 2:
			return float64(rng.Intn(3) + 1) // few distinct values: ties
		default:
			return rng.Float64() * 100
		}
	}
	cs := make([]Candidate, n)
	for i := range cs {
		if i > 0 && rng.Intn(6) == 0 {
			cs[i] = cs[rng.Intn(i)] // a duplicate candidate
			cs[i].Name = fmt.Sprintf("dup-%d", i)
			continue
		}
		cs[i] = Candidate{
			Name:     fmt.Sprintf("c-%d", i),
			Embodied: units.Grams(pick()),
			Energy:   units.Joules(pick()),
			Delay:    time.Duration(rng.Intn(4)+1) * time.Second,
			Area:     units.MM2(pick()),
		}
	}
	return cs
}

// TestRankMatchesOracle holds Rank to oracleRank over seeded sets under
// all six metrics: the same candidates, in the same order, with the same
// value bits. One set in fifty holds 257 to about 1500 candidates, so
// every digit count of the radix sort runs past a single byte.
func TestRankMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sawNaN, sawInf, sawNegZero := false, false, false
	for set := 0; set < 2000; set++ {
		n := 1 + rng.Intn(70)
		if set%50 == 0 {
			n = 257 + rng.Intn(1250)
		}
		cs := differentialSet(rng, n)
		for _, m := range All() {
			got, err := Rank(m, cs)
			want, wantErr := oracleRank(m, cs)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("set %d %s: err %v, oracle %v", set, m, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("set %d %s: %d ranked, oracle %d", set, m, len(got), len(want))
			}
			for i := range want {
				if got[i].Candidate != want[i].Candidate ||
					math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("set %d %s: position %d is %+v, oracle %+v", set, m, i, got[i], want[i])
				}
				sawNaN = sawNaN || math.IsNaN(want[i].Value)
				sawInf = sawInf || math.IsInf(want[i].Value, 1)
				sawNegZero = sawNegZero || math.Signbit(want[i].Value) && want[i].Value == 0
			}
		}
	}
	if !sawNaN || !sawInf || !sawNegZero {
		t.Fatalf("the sets never reached NaN (%v), +Inf (%v) or −0 (%v)", sawNaN, sawInf, sawNegZero)
	}
}

// TestRankKeepsNegativeZero: −0 and +0 tie, so they keep input order,
// and each comes back with its own sign bit.
func TestRankKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cs := []Candidate{
		{Name: "one", Embodied: units.Grams(1), Delay: time.Second},
		{Name: "pos", Embodied: units.Grams(0), Delay: time.Second},
		{Name: "neg", Embodied: units.Grams(negZero), Delay: time.Second},
	}
	ranked, err := Rank(CDP, cs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sc := range ranked {
		names = append(names, sc.Candidate.Name)
	}
	if fmt.Sprint(names) != "[pos neg one]" {
		t.Fatalf("order %v, want [pos neg one]", names)
	}
	if math.Signbit(ranked[0].Value) || !math.Signbit(ranked[1].Value) {
		t.Fatalf("values %v and %v lost their sign bits", ranked[0].Value, ranked[1].Value)
	}
}
