// The versioned wire format. A scenario's JSON form is the public contract
// shared verbatim by cmd/act and the actd service: an object carrying an
// explicit `"version": 1` envelope field. Readers accept a missing version
// as 1 (every pre-envelope scenario is a valid version-1 scenario) and
// reject any other version with a typed error, so future format changes
// can be detected instead of misparsed. The exact byte layout is frozen by
// the golden tests in wire_test.go.

package scenario

import (
	"bytes"
	"fmt"
	"io"

	"encoding/json"

	"act/internal/acterr"
)

// Version is the wire-format version this library reads and writes.
const Version = 1

// Marshal renders the spec in its canonical wire form: the version-1
// envelope with the version made explicit, two-space indented, trailing
// newline. This is the inverse of Unmarshal and the format cmd/act
// -example emits.
func Marshal(s *Spec) ([]byte, error) {
	c := *s
	if err := c.checkVersion(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// Unmarshal decodes a single wire-form scenario: one object, then only
// whitespace. It rejects unknown fields, so typos in hand-written
// scenarios fail loudly, and normalizes the envelope version (missing
// defaults to 1, anything else is a typed error). Input in the fast
// decoder's subset is decoded in one pass; anything else goes to
// encoding/json, whose errors are the contract (see fastwire.go).
func Unmarshal(data []byte) (*Spec, error) {
	d := NewFastDecoder(data)
	if s, err := d.Spec(); d.End() {
		return s, err
	}
	return unmarshalOracle(data)
}

// unmarshalOracle is Unmarshal through encoding/json.
func unmarshalOracle(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if !onlySpace(data[dec.InputOffset():]) {
		// The decoder stops after the first value; json.Unmarshal's syntax
		// check reports the trailer in its own words.
		return nil, fmt.Errorf("scenario: %w", json.Unmarshal(data, new(json.RawMessage)))
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseRequest decodes a footprint request body that is either one
// scenario object or a batch array of them — the shape POST /v1/footprint
// accepts. batch reports which form was seen so the response can mirror
// it. Element-level failures carry the batch index in their field path
// ("[3].logic[0].node").
func ParseRequest(r io.Reader) (specs []*Spec, batch bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("scenario: reading request: %w", err)
	}
	return parseRequest(data)
}

func parseRequest(data []byte) (specs []*Spec, batch bool, err error) {
	i := 0
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	if i == len(data) {
		return nil, false, fmt.Errorf("scenario: %w", acterr.Invalid("", "empty request body"))
	}
	if data[i] != '[' {
		s, err := Unmarshal(data)
		if err != nil {
			return nil, false, err
		}
		return []*Spec{s}, false, nil
	}
	specs, ok := fastBatch(data)
	if !ok {
		return parseBatchOracle(data)
	}
	if len(specs) == 0 {
		return nil, true, errEmptyBatch
	}
	for j, s := range specs {
		if err := s.checkVersion(); err != nil {
			return nil, true, batchElementError(j, err)
		}
	}
	return specs, true, nil
}

// parseBatchOracle is ParseRequest's batch path through encoding/json: a
// syntax check of the whole body, then each element on its own.
func parseBatchOracle(data []byte) ([]*Spec, bool, error) {
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, true, fmt.Errorf("scenario: batch: %w", err)
	}
	if len(raws) == 0 {
		return nil, true, errEmptyBatch
	}
	specs := make([]*Spec, len(raws))
	for j, raw := range raws {
		s, err := unmarshalOracle(raw)
		if err != nil {
			return nil, true, batchElementError(j, err)
		}
		specs[j] = s
	}
	return specs, true, nil
}

var errEmptyBatch = fmt.Errorf("scenario: %w", acterr.Invalid("", "empty batch"))

// batchElementError re-roots element j's error under its batch index.
func batchElementError(j int, err error) error {
	return fmt.Errorf("scenario: batch: %w", acterr.Prefix(fmt.Sprintf("[%d]", j), err))
}

// onlySpace reports whether b is all JSON whitespace.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if !isJSONSpace(c) {
			return false
		}
	}
	return true
}

// isJSONSpace reports JSON whitespace (RFC 8259 §2).
func isJSONSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}
