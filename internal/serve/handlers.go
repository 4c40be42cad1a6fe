package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"

	"act/internal/resilience"
	"act/internal/scenario"
)

// handleFootprint evaluates one scenario (a JSON object) or a batch of them
// (a JSON array). The response mirrors the request shape: a single result
// object, or an array of results in request order. Both shapes run through
// the columnar engine as a batch — a single object is a batch of one — so
// every evaluation is cache-probed and only distinct misses cost a model
// evaluation. A request that fails with a transient infrastructure fault
// is retried whole (results cached by the failed attempt make the replay
// cheap); validation failures never are.
func (s *Server) handleFootprint(w http.ResponseWriter, r *http.Request) {
	specs, batch, err := scenario.ParseRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErrorCode(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		// Anything else unparseable is the client's to fix, typed or not.
		s.writeBadRequest(w, r, err)
		return
	}
	if len(specs) > s.cfg.MaxBatch {
		s.writeErrorCode(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, "",
			fmt.Sprintf("batch of %d scenarios exceeds the limit of %d", len(specs), s.cfg.MaxBatch))
		return
	}

	results, err := resilience.Retry(r.Context(), s.retryPolicy(uint64(len(specs))),
		func(ctx context.Context, _ int) ([]json.RawMessage, error) {
			return s.evalBatchColumnar(ctx, specs, batch)
		})
	if err != nil {
		s.writeError(w, r, err)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	if !batch {
		_, _ = w.Write(results[0])
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteByte('[')
	for i, raw := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(bytes.TrimRight(raw, "\n"))
	}
	buf.WriteString("]\n")
	_, _ = w.Write(buf.Bytes())
}

// retryPolicy is the server's transient-fault retry policy. The seed folds
// the request's shape into the deterministic jitter stream so two
// identical requests back off identically — chaos runs reproduce.
func (s *Server) retryPolicy(seed uint64) resilience.RetryPolicy {
	return resilience.RetryPolicy{
		MaxAttempts: s.cfg.RetryAttempts,
		Seed:        seed + 1, // never 0: 0 selects the package default
		OnRetry:     func(int, error) { s.mRetries.Inc() },
	}
}

// fnvHash folds a string (a script's source) into a 64-bit retry-jitter
// seed.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
