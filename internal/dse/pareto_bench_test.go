package dse

import (
	"context"
	"testing"
	"time"

	"act/internal/metrics"
)

const benchFrontierN = 2000

// benchFrontierCands builds a trade-off-shaped dataset: half the points
// sit on an anti-correlated embodied/delay curve (all mutually
// non-dominated), half are random fill. Design-space data clusters around
// such trade-off fronts, and a large frontier is exactly where the old
// O(n²·k)-evaluation scan collapses — early exits are rare because most
// comparisons are between mutually non-dominated points.
func benchFrontierCands(n int) []metrics.Candidate {
	g := lcg(2022)
	out := make([]metrics.Candidate, n)
	for i := range out {
		if i%2 == 0 {
			x := 1 + 99*g.next()
			out[i] = cand("front", x, 1, 101-x, 1)
		} else {
			out[i] = cand("fill", 50+50*g.next(), 1, 50+50*g.next(), 1)
		}
	}
	return out
}

// BenchmarkParetoFrontierSeq measures the pre-optimization frontier: the
// O(n²) dominance scan that re-invokes Objective.Eval inside the loop.
func BenchmarkParetoFrontierSeq(b *testing.B) {
	cands := benchFrontierCands(benchFrontierN)
	objs := []Objective{Embodied, Delay}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := paretoReference(cands, objs); len(out) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkParetoFrontierFast measures the shipped ParetoFrontier (n·k
// evaluations, sorted 2-objective path) and reports its speedup over the
// sequential reference.
func BenchmarkParetoFrontierFast(b *testing.B) {
	cands := benchFrontierCands(benchFrontierN)
	objs := []Objective{Embodied, Delay}

	// Sequential baseline for the speedup metric.
	const baselineIters = 3
	start := time.Now()
	for i := 0; i < baselineIters; i++ {
		paretoReference(cands, objs)
	}
	seqPerOp := time.Since(start) / baselineIters

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ParetoFrontier(cands, objs)
		if err != nil || len(out) == 0 {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perOp := b.Elapsed() / time.Duration(b.N)
		if perOp > 0 {
			b.ReportMetric(float64(seqPerOp)/float64(perOp), "speedup")
		}
	}
}

// nonDominated3DRows builds two 3-column matrices. "perfbench-1000" has
// the shape of perfbench's sweep frontier (embodied, energy, delay drawn
// independently), where the frontier stays small. "plane-2000" puts half
// its rows on the plane x+y+z = 150, where no row dominates another, and
// the other half at random above it: a frontier of about a thousand rows.
func nonDominated3DRows() map[string][][]float64 {
	g := lcg(32)
	perf := make([][]float64, 1000)
	for i := range perf {
		perf[i] = []float64{1000 + 50000*g.next(), 1e7 * g.next(), float64(1+int(100000*g.next())) / 1000}
	}
	plane := make([][]float64, 2000)
	for i := range plane {
		x, y := 50*g.next(), 50*g.next()
		if i%2 == 0 {
			plane[i] = []float64{x, y, 150 - x - y}
		} else {
			plane[i] = []float64{50 + x, 50 + y, 50 + 50*g.next()}
		}
	}
	return map[string][][]float64{"perfbench-1000": perf, "plane-2000": plane}
}

// BenchmarkNonDominated3D times the 3-column frontier core on both
// matrices; NonDominated leaves a NaN-free matrix as it found it, so one
// copy serves every iteration.
func BenchmarkNonDominated3D(b *testing.B) {
	rows := nonDominated3DRows()
	for _, name := range []string{"perfbench-1000", "plane-2000"} {
		vals := rows[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NonDominated(context.Background(), vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
