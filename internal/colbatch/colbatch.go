// Package colbatch is the columnar batch evaluation engine for the
// footprint hot path. It decodes a batch of scenario specs into
// structure-of-arrays columns (one flat slice per model parameter, with
// CSR-style per-item offsets), preresolves fab/memdb/storagedb table rows
// into dense per-batch caches once, evaluates Eqs. 1-8 of the paper with
// tight loops over the flat columns, and emits each result document with a
// hand-rolled encoder that replicates encoding/json byte for byte, writing
// every value directly: design-space traffic evaluates distinct designs,
// so a memo of formatted values would rarely hit. Results.Walk hands the
// same values to a Sink field by field, for callers that want values
// rather than bytes.
//
// The scalar path (scenario.Spec.Result + report.Encode) stays untouched
// as the oracle: any item the columnar decoder cannot prove valid — a
// failed table lookup, an out-of-range field, a non-finite intermediate —
// falls back to the scalar path for that one item, so its document or its
// typed acterr field path is identical to the scalar answer by
// construction. internal/conform runs a fifth "columnar" surface over the
// whole seeded corpus to machine-enforce the byte identity.
//
// Steady-state allocation on the batch path is near zero: column buffers,
// the document arena and the result headers are pooled via sync.Pool, and
// the per-batch resolution caches persist across batches (the tables they
// mirror are immutable), bounded by maxResolverEntries.
package colbatch

import (
	"bytes"
	"sync"
	"time"

	"act/internal/report"
	"act/internal/scenario"
)

// DefaultChunk is the chunk size integration loops use when fanning a
// large batch across a worker pool: big enough to amortize the per-chunk
// resolution cache warm-up, small enough to keep the pool busy.
const DefaultChunk = 256

// PreColumnarColdNS is the frozen scalar baseline the columnar
// benchmarks report speedup_vs_baseline against: one cold single-scenario
// footprint (BenchmarkFootprintCold) cost 22975 ns, 8841 B and 54 allocs
// at the commit before this engine landed (go1.24 linux/amd64, Intel Xeon
// @ 2.10 GHz; recorded in BENCH_6.json as baseline_pre_columnar). The
// >=10x recorded there came from copies of one scenario while the encoder
// memoized repeated values; without the memo they report about 6x.
const PreColumnarColdNS = 22975

// maxPooledItems caps the batch capacity returned to the pool so one
// outsized request cannot pin its columns forever.
const maxPooledItems = 8192

// maxResolverEntries caps each table-resolution cache. Distinct fab
// configs and technology spellings are few in practice; a client streaming
// unbounded distinct values must not grow the cache without limit.
const maxResolverEntries = 4096

// Results is the outcome of one columnar batch evaluation. Doc bytes
// point into a pooled arena and are valid until Close; callers that
// retain a document (a cache, say) must copy it first.
type Results struct {
	docs [][]byte
	errs []error
	b    *batch
}

// Len returns the number of items in the batch.
func (r *Results) Len() int { return len(r.docs) }

// Doc returns item i's result document — byte-identical to the scalar
// path's report.Encode output — or nil when the item errored. Valid until
// Close.
func (r *Results) Doc(i int) []byte { return r.docs[i] }

// Err returns item i's evaluation error, identical to the scalar path's
// (same acterr field path, same message), or nil.
func (r *Results) Err(i int) error { return r.errs[i] }

// FirstErr returns the lowest-index item error and its index, or (-1,
// nil) when every item evaluated cleanly — the same first-error semantics
// a parsweep.MapErrCtx over the scalar path reports.
func (r *Results) FirstErr() (int, error) {
	for i, err := range r.errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// Close returns the pooled column buffers. The Results and every Doc
// slice are invalid afterwards.
func (r *Results) Close() {
	if r.b != nil {
		putBatch(r.b)
		r.b = nil
	}
	// Keep the headers' capacity but drop every reference: the docs point
	// into the batch arena that just went back to the pool.
	for i := range r.docs {
		r.docs[i] = nil
	}
	r.docs = r.docs[:0]
	for i := range r.errs {
		r.errs[i] = nil
	}
	r.errs = r.errs[:0]
	resultsPool.Put(r)
}

var resultsPool = sync.Pool{New: func() any { return new(Results) }}

// Eval evaluates a batch of specs through the columnar engine and returns
// one document or error per item, in input order. Items the fast path
// cannot prove valid are answered by the scalar oracle, so documents and
// errors are byte- and path-identical to scenario.Spec.Result.
func Eval(specs []*scenario.Spec) *Results {
	b := getBatch()
	for _, s := range specs {
		b.appendSpec(s, false)
	}
	b.evalColumns()

	r := resultsPool.Get().(*Results)
	r.b = b
	// Two passes: the arena may reallocate while documents append, so
	// record offsets first and materialize subslices once it is stable.
	offs := b.docSpans[:0]
	for i := range specs {
		if b.bad[i] {
			offs = append(offs, docSpan{-1, -1})
			continue
		}
		start := len(b.buf)
		if !b.appendDoc(i) {
			// A non-finite value the scalar encoder would reject (or
			// reject differently): let the oracle answer.
			b.buf = b.buf[:start]
			b.bad[i] = true
			offs = append(offs, docSpan{-1, -1})
			continue
		}
		offs = append(offs, docSpan{start, len(b.buf)})
	}
	b.docSpans = offs
	for i, s := range specs {
		if b.bad[i] {
			doc, err := scalarEval(s)
			r.docs = append(r.docs, doc)
			r.errs = append(r.errs, err)
			continue
		}
		r.docs = append(r.docs, b.buf[offs[i].start:offs[i].end:offs[i].end])
		r.errs = append(r.errs, nil)
	}
	return r
}

type docSpan struct{ start, end int }

// scalarEval is the oracle: the untouched scalar path, evaluated and
// encoded exactly as cmd/act -format json does.
func scalarEval(s *scenario.Spec) ([]byte, error) {
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EmbodiedTotals evaluates only the embodied side (ECF, Eqs. 3-8) of each
// spec — the quantity fleet Recompute reprices — writing one total in
// grams per spec into out (which must be len(specs)). It returns the
// lowest-index item error, identical to the scalar
// Device-Embodied-Total path's, or nil.
func EmbodiedTotals(specs []*scenario.Spec, out []float64) error {
	b := getBatch()
	defer putBatch(b)
	for _, s := range specs {
		b.appendSpec(s, true)
	}
	b.evalColumns()
	var firstErr error
	for i, s := range specs {
		if b.bad[i] {
			g, err := scalarEmbodied(s)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				out[i] = 0
				continue
			}
			out[i] = g
			continue
		}
		out[i] = b.embG[i]
	}
	return firstErr
}

// batch is the structure-of-arrays form of a decoded spec batch. All
// slices are reused across batches via the pool; CSR offset slices have
// length n+1.
type batch struct {
	n int

	// Per-item scalars.
	name     []string
	bad      []bool
	hasLC    []bool
	hasEOL   []bool
	appTime  []time.Duration
	lifetime []time.Duration
	powerW   []float64
	ci       []float64
	eff      []float64 // 0 = unscaled; else the PUE / 1-over-eta multiplier
	extraICs []int32
	eolProcG []float64
	eolCredG []float64

	// CSR offsets into the flat component columns.
	logicOff []int32
	dramOff  []int32
	storOff  []int32
	legOff   []int32

	// Flat logic columns (Eqs. 4-5; CPA preresolved per fab config).
	logicName []string
	logicArea []float64
	logicCPA  []float64
	logicCnt  []int32
	logicEmb  []float64

	// Flat DRAM columns (Eq. 6; CPS preresolved from Table 9).
	dramName []string
	dramCPS  []float64
	dramCap  []float64
	dramEmb  []float64

	// Flat storage columns (Eqs. 7-8; CPS preresolved from Tables 10-11).
	storName []string
	storCPS  []float64
	storCap  []float64
	storHDD  []bool
	storEmb  []float64

	// Flat transport columns (life-cycle legs).
	legFactor []float64
	legMass   []float64
	legDist   []float64
	legEmb    []float64

	// Per-item results.
	opG    []float64
	embG   []float64
	shareG []float64
	packG  []float64
	icN    []int64
	trG    []float64
	eolG   []float64

	// Document arena and the packaging-name scratch buffer.
	buf      []byte
	scratch  []byte
	docSpans []docSpan

	res resolver
}

var batchPool = sync.Pool{New: func() any {
	return &batch{res: newResolver()}
}}

func getBatch() *batch {
	b := batchPool.Get().(*batch)
	b.reset()
	return b
}

func putBatch(b *batch) {
	if cap(b.name) > maxPooledItems {
		return // drop outsized batches instead of pinning their columns
	}
	batchPool.Put(b)
}

// reset rewinds every column to zero length, keeping capacity, and trims
// runaway resolution caches.
func (b *batch) reset() {
	b.n = 0
	b.name = b.name[:0]
	b.bad = b.bad[:0]
	b.hasLC = b.hasLC[:0]
	b.hasEOL = b.hasEOL[:0]
	b.appTime = b.appTime[:0]
	b.lifetime = b.lifetime[:0]
	b.powerW = b.powerW[:0]
	b.ci = b.ci[:0]
	b.eff = b.eff[:0]
	b.extraICs = b.extraICs[:0]
	b.eolProcG = b.eolProcG[:0]
	b.eolCredG = b.eolCredG[:0]
	b.logicOff = append(b.logicOff[:0], 0)
	b.dramOff = append(b.dramOff[:0], 0)
	b.storOff = append(b.storOff[:0], 0)
	b.legOff = append(b.legOff[:0], 0)
	b.logicName = b.logicName[:0]
	b.logicArea = b.logicArea[:0]
	b.logicCPA = b.logicCPA[:0]
	b.logicCnt = b.logicCnt[:0]
	b.logicEmb = b.logicEmb[:0]
	b.dramName = b.dramName[:0]
	b.dramCPS = b.dramCPS[:0]
	b.dramCap = b.dramCap[:0]
	b.dramEmb = b.dramEmb[:0]
	b.storName = b.storName[:0]
	b.storCPS = b.storCPS[:0]
	b.storCap = b.storCap[:0]
	b.storHDD = b.storHDD[:0]
	b.storEmb = b.storEmb[:0]
	b.legFactor = b.legFactor[:0]
	b.legMass = b.legMass[:0]
	b.legDist = b.legDist[:0]
	b.legEmb = b.legEmb[:0]
	b.opG = b.opG[:0]
	b.embG = b.embG[:0]
	b.shareG = b.shareG[:0]
	b.packG = b.packG[:0]
	b.icN = b.icN[:0]
	b.trG = b.trG[:0]
	b.eolG = b.eolG[:0]
	b.buf = b.buf[:0]
	b.docSpans = b.docSpans[:0]
	b.res.trim()
}
