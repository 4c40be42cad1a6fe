package metrics

import (
	"testing"
	"time"

	"act/internal/units"
)

func benchCandidates() []Candidate {
	out := make([]Candidate, 64)
	for i := range out {
		out[i] = Candidate{
			Name:     "c",
			Embodied: units.Grams(float64(i + 1)),
			Energy:   units.Joules(float64(64 - i)),
			Delay:    time.Duration(i+1) * time.Millisecond,
			Area:     units.MM2(float64(i + 1)),
		}
	}
	return out
}

func BenchmarkEval(b *testing.B) {
	c := benchCandidates()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range All() {
			if _, err := Eval(m, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRank64(b *testing.B) {
	cs := benchCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rank(CEP, cs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalized64(b *testing.B) {
	cs := benchCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Normalized(CDP, cs, "c"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRank1000 ranks the candidate count perfbench's sweep sends
// under every Table 2 metric.
func BenchmarkRank1000(b *testing.B) {
	cs := make([]Candidate, 1000)
	for i := range cs {
		cs[i] = Candidate{
			Name:     "c",
			Embodied: units.Grams(float64(i%97 + 1)),
			Energy:   units.Joules(float64(1000 - i)),
			Delay:    time.Duration(i%13+1) * time.Millisecond,
			Area:     units.MM2(float64(i%31 + 1)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range All() {
			if _, err := Rank(m, cs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
