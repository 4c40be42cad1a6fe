package colbatch_test

import (
	"testing"

	"act/internal/colbatch"
	"act/internal/conform"
)

// BenchmarkColBatchEvalCorpus times the batch traffic perfbench's design
// workload sends: 32 distinct 256-scenario batches from the seeded
// conformance corpus, one batch per op, cycled in order. Unlike
// BenchmarkColBatchEval's copies of one scenario, almost no value repeats
// within a batch, which is the shape of a design-space exploration.
func BenchmarkColBatchEvalCorpus(b *testing.B) {
	const batches, size = 32, 256
	all := conform.GenerateCorpus(1, batches*size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % batches
		r := colbatch.Eval(all[k*size : (k+1)*size])
		if _, err := r.FirstErr(); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(b.N)*size/b.Elapsed().Seconds(), "scenarios/s")
}
