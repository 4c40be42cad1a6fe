package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"act/internal/scenario"
)

// handleFootprint evaluates one scenario (a JSON object) or a batch of them
// (a JSON array). The response mirrors the request shape: a single result
// object, or an array of results in request order. Both shapes run through
// the columnar engine as a batch — a single object is a batch of one — so
// every evaluation is cache-probed and only distinct misses cost a model
// evaluation. A failed evaluation is answered on its first attempt: the
// model is deterministic, so a rerun would fail the same way.
func (s *Server) handleFootprint(w http.ResponseWriter, r *http.Request) error {
	specs, batch, err := scenario.ParseRequest(s.body(w, r))
	if err != nil {
		// Anything unparseable is the client's to fix, typed or not.
		return badRequest(err)
	}
	if len(specs) > s.cfg.MaxBatch {
		return newAPIError(http.StatusRequestEntityTooLarge, codeTooLarge, "",
			fmt.Sprintf("batch of %d scenarios exceeds the limit of %d", len(specs), s.cfg.MaxBatch))
	}

	results, err := s.evalBatchColumnar(r.Context(), specs, batch)
	if err != nil {
		return err
	}

	w.Header().Set("Content-Type", "application/json")
	if !batch {
		_, _ = w.Write(results[0])
		return nil
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
	return nil
}

// body is the request body bounded by MaxBodyBytes: every route that
// reads a body reads it here, so reading past the limit fails with the
// *http.MaxBytesError that classify answers 413.
func (s *Server) body(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// readBody reads the bounded body whole. A declared Content-Length sizes
// the buffer up front, capped at the body limit, so a truthful body is
// read without regrowing and a lying one cannot make the server allocate
// past the limit; an unknown length (-1) grows from 512 bytes, as
// io.ReadAll does. The one spare byte lets the final read see EOF.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, max(s.cfg.MaxBodyBytes, 0)) + 1
	}
	body, buf := s.body(w, r), make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, badRequest(fmt.Errorf("reading request body: %w", err))
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeJSON decodes one JSON document into v with encoding/json,
// rejecting unknown fields; what names the document in a parse error
// ("script request"). It is the oracle a route's fast decoder falls back
// to.
func decodeJSON(body []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("parsing %s: %w", what, err))
	}
	return nil
}
