// The evaluation path for /v1/footprint: a request — an array, or a
// single object as a batch of one — decodes once, probes the footprint
// cache per canonical key, and evaluates only the distinct misses through
// internal/colbatch in chunked column batches fanned across the worker
// pool. The scalar model stays the oracle inside internal/colbatch: any
// item the columnar decoder cannot prove valid gets the scalar answer.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"act/internal/acterr"
	"act/internal/colbatch"
	"act/internal/faultinject"
	"act/internal/parsweep"
	"act/internal/scenario"
)

// errScenarioFailed is the sentinel a chunk returns when one of its
// scenarios fails: the pool sees a non-ctx error (so it cancels and wins
// over ctx-induced sibling failures), while the real per-scenario error
// is recorded out of band and re-wrapped with the scenario index — the
// same "parsweep: item i" shape a per-scenario pool would report.
var errScenarioFailed = errors.New("scenario failed")

// maxPooledBufBytes caps the capacity of response buffers returned to the
// pool, so one huge batch response does not pin its buffer forever.
const maxPooledBufBytes = 1 << 20

// bufPool holds the batch join buffer handleFootprint encodes an array
// response into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBufBytes {
		bufPool.Put(b)
	}
}

// missChunk is one contiguous run of the deduped miss list, the unit of
// work fanned across the pool.
type missChunk struct{ start, end int }

// evalBatchColumnar answers a whole request: cache probes for residency,
// batch-local dedup by canonical key, columnar evaluation of the distinct
// misses. Every scenario counts, a resident or batch-coalesced item is a
// hit, every distinct evaluation is a miss. indexed selects the error
// shape: an array request's item errors carry "[i]"-prefixed field paths
// ("[1].usage.app_hours"); a single object's stay unprefixed.
func (s *Server) evalBatchColumnar(ctx context.Context, specs []*scenario.Spec, indexed bool) ([]json.RawMessage, error) {
	results := make([]json.RawMessage, len(specs))
	keyOf := make([]string, len(specs))
	first := make(map[string]int, len(specs)) // key → first non-resident index
	miss := make([]int, 0, len(specs))
	for i, spec := range specs {
		s.mScenarios.Inc()
		key := spec.CanonicalKey()
		keyOf[i] = key
		if raw, ok := s.cache.Get(key); ok {
			s.mCacheHits.Inc()
			results[i] = raw
			continue
		}
		if _, seen := first[key]; seen {
			// Coalesced onto the first occurrence's evaluation in
			// this request.
			s.mCacheHits.Inc()
			continue
		}
		first[key] = i
		s.mCacheMisses.Inc()
		miss = append(miss, i)
	}

	if len(miss) > 0 {
		nChunks := (len(miss) + colbatch.DefaultChunk - 1) / colbatch.DefaultChunk
		chunks := make([]missChunk, nChunks)
		for c := range chunks {
			start := c * colbatch.DefaultChunk
			chunks[c] = missChunk{start, min(start+colbatch.DefaultChunk, len(miss))}
		}
		// The pool indexes chunks, but failures must report the scenario
		// index. record keeps the lowest-index scenario error; the chunk
		// hands the pool the sentinel instead.
		var (
			errMu  sync.Mutex
			errIdx = -1
			errVal error
		)
		record := func(gi int, err error) error {
			if indexed {
				err = acterr.Prefix(fmt.Sprintf("[%d]", gi), err)
			}
			errMu.Lock()
			if errIdx == -1 || gi < errIdx {
				errIdx, errVal = gi, err
			}
			errMu.Unlock()
			return errScenarioFailed
		}
		if _, err := parsweep.MapErrCtx(ctx, s.cfg.Workers, chunks,
			func(ctx context.Context, _ int, ch missChunk) (struct{}, error) {
				s.mPoolDepth.Inc()
				defer s.mPoolDepth.Dec()
				chunkSpecs := make([]*scenario.Spec, ch.end-ch.start)
				for j := range chunkSpecs {
					// Every evaluated scenario passes the cache-miss
					// injected-fault site, honoring the request deadline.
					if err := faultinject.Visit(ctx, faultinject.SiteCacheCompute); err != nil {
						return struct{}{}, record(miss[ch.start+j], err)
					}
					chunkSpecs[j] = specs[miss[ch.start+j]]
				}
				r := colbatch.Eval(chunkSpecs)
				defer r.Close()
				for j := 0; j < r.Len(); j++ {
					gi := miss[ch.start+j]
					if err := r.Err(j); err != nil {
						return struct{}{}, record(gi, err)
					}
					// Copy out of the pooled arena before caching: the
					// cache and the response outlive the batch columns.
					raw := json.RawMessage(bytes.Clone(r.Doc(j)))
					s.cache.Put(keyOf[gi], raw)
					results[gi] = raw
				}
				return struct{}{}, nil
			}); err != nil {
			// Substitute the recorded scenario error only when the pool's
			// winner is our sentinel: a parent-ctx cancellation or an
			// injected pool-worker fault passes through unchanged.
			if errors.Is(err, errScenarioFailed) && errIdx >= 0 {
				return nil, parsweep.ItemError(errIdx, errVal)
			}
			return nil, err
		}
	}

	// Batch-local duplicates read their key's evaluated first occurrence.
	for i := range results {
		if results[i] == nil {
			results[i] = results[first[keyOf[i]]]
		}
	}
	return results, nil
}
