// The fleet wire format. One device is one JSON object; a fleet file or
// ingest request body is a stream of them — NDJSON in practice, though the
// decoder accepts any concatenation of JSON objects (pretty-printed
// objects included, since the stream decoder does not care about
// newlines):
//
//	{"id":"rack1-0","region":"united-states","deployed":"2024-01-01",
//	 "retired":"2027-01-01","utilization":0.5,"scenario":{...}}
//
// Dates are "2006-01-02" (midnight UTC) or RFC 3339. retired defaults to
// deployed + the scenario's lifetime (LT); utilization defaults to 1. The
// embedded scenario is the ordinary version-1 scenario document.

package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"act/internal/acterr"
	"act/internal/scenario"
	"act/internal/units"
)

// DeviceSpec is the raw wire form of one fleet device.
type DeviceSpec struct {
	ID          string          `json:"id"`
	Region      string          `json:"region"`
	Deployed    string          `json:"deployed"`
	Retired     string          `json:"retired,omitempty"`
	Utilization *float64        `json:"utilization,omitempty"`
	Scenario    json.RawMessage `json:"scenario"`
}

// ParseDevice decodes and validates one wire-form device. Failures are
// typed acterr.InvalidSpecError values carrying the offending field path.
// A line in the scenario package's fast subset is decoded in one pass,
// embedded scenario included; any other goes through encoding/json.
func ParseDevice(data []byte) (*Device, error) {
	if ds, spec, specErr, ok := fastDevice(data); ok {
		return ds.device(spec, specErr)
	}
	var ds DeviceSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ds); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return ds.Device()
}

var deviceKeys = []string{"id", "region", "deployed", "retired", "utilization", "scenario"}

// fastDevice decodes a device line and its embedded scenario in one pass.
// ds.Scenario holds the scenario's bytes, as encoding/json would leave
// them, and spec and specErr are what scenario.Unmarshal makes of them
// (nil, nil when the line has no scenario). ok is false when the line
// left the fast subset.
func fastDevice(data []byte) (ds DeviceSpec, spec *scenario.Spec, specErr error, ok bool) {
	d := scenario.NewFastDecoder(data)
	d.Object(deviceKeys, func(key string) {
		switch key {
		case "id":
			ds.ID = d.String()
		case "region":
			ds.Region = d.String()
		case "deployed":
			ds.Deployed = d.String()
		case "retired":
			ds.Retired = d.String()
		case "utilization":
			u := d.Float()
			ds.Utilization = &u
		case "scenario":
			start := d.Pos()
			spec, specErr = d.Spec()
			ds.Scenario = data[start:d.Pos()]
		}
	})
	return ds, spec, specErr, d.End()
}

// Device validates the wire form and applies the documented defaults.
func (ds *DeviceSpec) Device() (*Device, error) {
	var spec *scenario.Spec
	var specErr error
	if len(ds.Scenario) > 0 {
		spec, specErr = scenario.Unmarshal(ds.Scenario)
	}
	return ds.device(spec, specErr)
}

// device is Device with the scenario already decoded by the caller, so a
// line decoded in one pass is not decoded twice. specErr is reported only
// after the id and the scenario's presence are checked.
func (ds *DeviceSpec) device(spec *scenario.Spec, specErr error) (*Device, error) {
	if ds.ID == "" {
		return nil, fmt.Errorf("fleet: %w", acterr.Invalid("id", "missing device id"))
	}
	if len(ds.Scenario) == 0 {
		return nil, fmt.Errorf("fleet: %w", acterr.Invalid("scenario", "missing scenario"))
	}
	if specErr != nil {
		return nil, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", specErr))
	}
	deployed, err := parseDate("deployed", ds.Deployed)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var retired time.Time
	if ds.Retired == "" {
		retired = deployed.Add(units.Years(spec.Lifetime()))
	} else if retired, err = parseDate("retired", ds.Retired); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	util := 1.0
	if ds.Utilization != nil {
		util = *ds.Utilization
	}
	dev := &Device{
		ID:          ds.ID,
		Region:      ds.Region,
		Deployed:    deployed,
		Retired:     retired,
		Utilization: util,
		Spec:        spec,
		wire:        sha256.Sum256(ds.Scenario),
		parsed:      spec,
	}
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return dev, nil
}

// parseDate accepts the wire date form or full RFC 3339.
func parseDate(field, s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, acterr.Invalid(field, "missing date")
	}
	if t, err := time.Parse(dateFormat, s); err == nil {
		return t, nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, acterr.Invalid(field, "cannot parse date %q (want %s or RFC 3339)", s, dateFormat)
	}
	return t, nil
}

// IngestResult summarizes one ingest stream.
type IngestResult struct {
	// Upserted counts devices applied, Replaced the subset that replaced
	// an existing id.
	Upserted int `json:"upserted"`
	Replaced int `json:"replaced"`
}

// IngestNDJSON reads a stream of device objects and upserts each in
// order. Ingest stops at the first failure: the error carries the
// zero-based record index in its field path ("device[3].retired") and the
// result reports how many records were applied before it — applied
// records stay applied.
//
// maxDevices, when positive, bounds the stream; exceeding it returns
// ErrTooMany wrapped with the limit.
func (r *Registry) IngestNDJSON(rd io.Reader, maxDevices int) (IngestResult, error) {
	var res IngestResult
	err := ReadNDJSON(rd, maxDevices, func(i int, raw json.RawMessage) error {
		dev, err := ParseDevice(raw)
		if err != nil {
			return prefixRecord(i, err)
		}
		replaced, err := r.Upsert(*dev)
		if err != nil {
			return prefixRecord(i, err)
		}
		res.Upserted++
		if replaced {
			res.Replaced++
		}
		return nil
	})
	return res, err
}

// ReadNDJSON frames a device stream — any concatenation of JSON values,
// newline-separated or not — and calls fn with each record's zero-based
// index and raw bytes, in order, until the stream ends or fn fails. Each
// raw is its own copy. A malformed record is a typed validation error
// rooted at "device[i]"; an IO-class failure (a read fault, a body-size
// limit) keeps its type so callers can classify it; a record past a
// positive maxDevices is ErrTooMany wrapped with the limit.
func ReadNDJSON(rd io.Reader, maxDevices int, fn func(i int, raw json.RawMessage) error) error {
	dec := json.NewDecoder(rd)
	for i := 0; ; i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			var syn *json.SyntaxError
			if errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("fleet: %w",
					acterr.Prefix(fmt.Sprintf("device[%d]", i), acterr.Invalid("", "malformed JSON: %v", err)))
			}
			return fmt.Errorf("fleet: device[%d]: %w", i, err)
		}
		if maxDevices > 0 && i >= maxDevices {
			return fmt.Errorf("fleet: %w: limit %d", ErrTooMany, maxDevices)
		}
		if err := fn(i, raw); err != nil {
			return err
		}
	}
}

// ErrTooMany reports an ingest stream longer than the configured bound.
var ErrTooMany = errors.New("too many devices in one ingest")

// prefixRecord re-roots a record's validation error under its stream
// index. Non-validation failures (a write-ahead-log fault, an injected
// transient) keep their class — they are not the client's to fix — and
// gain the index as plain context.
func prefixRecord(i int, err error) error {
	if acterr.IsInvalid(err) {
		return fmt.Errorf("fleet: %w", acterr.Prefix(fmt.Sprintf("device[%d]", i), err))
	}
	return fmt.Errorf("device[%d]: %w", i, err)
}
