// The fleet wire format. One device is one JSON object; a fleet file or
// ingest request body is a stream of them — NDJSON in practice, though the
// reader accepts any concatenation of JSON objects (pretty-printed
// objects included, since neither the framer nor encoding/json's stream
// decoder cares about newlines):
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
	"slices"
	"sync"
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
		return ds.device(sha256.Sum256(ds.Scenario), spec, specErr)
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
	return readDevice(data, true)
}

// readDevice is fastDevice, or with decode false the line's skim: the
// scenario is passed over by FastDecoder.Skip, which checks it is well
// formed, and spec and specErr stay nil.
func readDevice(data []byte, decode bool) (ds DeviceSpec, spec *scenario.Spec, specErr error, ok bool) {
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
			if decode {
				spec, specErr = d.Spec()
			} else {
				d.Skip()
			}
			ds.Scenario = data[start:d.Pos()]
		}
	})
	return ds, spec, specErr, d.End()
}

// Device validates the wire form and applies the documented defaults.
func (ds *DeviceSpec) Device() (*Device, error) { return ds.decode(nil) }

// decode is Device with the scenario looked up first in boms, when it is
// not nil. A hit borrows the entry's spec instead of decoding the bytes:
// an entry holds what scenario.Unmarshal makes of the bytes its digest
// keys, or a spec that marshals alike. Upsert still prices the device
// under the table as it then stands.
func (ds *DeviceSpec) decode(boms *bomTable) (*Device, error) {
	wire := sha256.Sum256(ds.Scenario)
	var spec *scenario.Spec
	var specErr error
	if boms != nil {
		if b := boms.entry(wire); b != nil {
			spec = b.spec
		}
	}
	if spec == nil && len(ds.Scenario) > 0 {
		spec, specErr = scenario.Unmarshal(ds.Scenario)
	}
	return ds.device(wire, spec, specErr)
}

// device is Device with the scenario's digest taken and the scenario
// decoded by the caller, so a line is neither hashed nor decoded twice.
// specErr is reported only after the id and the scenario's presence are
// checked.
func (ds *DeviceSpec) device(wire bomID, spec *scenario.Spec, specErr error) (*Device, error) {
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
		wire:        wire,
		parsed:      spec,
	}
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return dev, nil
}

// parseDate accepts the wire date form or full RFC 3339. Only a 10-byte
// value can be the wire form and none can be RFC 3339, so the length
// picks the one layout to try.
func parseDate(field, s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, acterr.Invalid(field, "missing date")
	}
	layout := time.RFC3339
	if len(s) == len(dateFormat) {
		layout = dateFormat
	}
	t, err := time.Parse(layout, s)
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
	err := scanNDJSON(rd, maxDevices, func(i int, raw []byte, ds *DeviceSpec) error {
		var dev *Device
		var err error
		if ds != nil {
			dev, err = ds.decode(&r.boms)
		} else {
			dev, err = ParseDevice(raw)
		}
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
	return scanNDJSON(rd, maxDevices, func(i int, raw []byte, ds *DeviceSpec) error {
		if ds != nil {
			raw = bytes.Clone(raw)
		}
		return fn(i, raw)
	})
}

// scanNDJSON is the one scan under ReadNDJSON and IngestNDJSON. A framer
// finds each top-level object in a bounded buffer and readDevice skims
// its device fields, the scenario skipped; fn gets the record, valid only
// during the call, and those fields. From the first record the scan does
// not take on (a value that is not an object, a record outside the fast
// subset or past maxDevices, a read error or the end of the stream
// inside a record) the rest of the stream goes through encoding/json's
// decoder, which frames, validates and classifies it as ReadNDJSON always
// has; fn then gets each raw as its own copy, and a nil ds.
func scanNDJSON(rd io.Reader, maxDevices int, fn func(i int, raw []byte, ds *DeviceSpec) error) error {
	buf := framePool.Get().(*[]byte)
	f := framer{rd: rd, buf: (*buf)[:0]}
	defer func() {
		if cap(f.buf) <= 4*frameChunk {
			*buf = f.buf
			framePool.Put(buf)
		}
	}()
	for i := 0; ; i++ {
		rec := f.next()
		if rec == nil && f.err == io.EOF && f.pos == len(f.buf) {
			return nil
		}
		var ds DeviceSpec
		ok := rec != nil && (maxDevices <= 0 || i < maxDevices)
		if ok {
			ds, _, _, ok = readDevice(rec, false)
		}
		if !ok {
			return decodeNDJSON(f.rest(), i, maxDevices, fn)
		}
		f.pos += len(rec)
		if err := fn(i, rec, &ds); err != nil {
			return err
		}
	}
}

// decodeNDJSON is the stream reader through encoding/json, from record i
// on.
func decodeNDJSON(rd io.Reader, i, maxDevices int, fn func(i int, raw []byte, ds *DeviceSpec) error) error {
	dec := json.NewDecoder(rd)
	for ; ; i++ {
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
		if err := fn(i, raw, nil); err != nil {
			return err
		}
	}
}

// frameChunk is the most the framer asks its reader for at once. Its
// buffer holds the record being framed plus about one chunk.
const frameChunk = 16 << 10

// framePool keeps framer buffers for reuse; one that grew past four
// chunks to hold an outsized record is left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// framer finds top-level objects in a stream by counting depth outside
// strings. It does not check that what it frames is JSON: the skim does,
// and encoding/json judges whatever the skim declines.
type framer struct {
	rd  io.Reader
	buf []byte // what has been read; buf[pos:] is not yet consumed
	pos int
	// err is the reader's first error, io.EOF included. The framer reads
	// no further, and rest hands the error on after the unconsumed bytes,
	// so a reader that would not repeat it still ends the stream.
	err error
}

// next skips whitespace and returns the object at f.pos, valid until the
// next call, without consuming it. It returns nil when the next value is
// not an object, and when the reader fails, io.EOF included, before the
// next value ends.
func (f *framer) next() []byte {
	for {
		for f.pos < len(f.buf) && isSpace(f.buf[f.pos]) {
			f.pos++
		}
		if f.pos < len(f.buf) {
			break
		}
		if !f.fill() {
			return nil
		}
	}
	if f.buf[f.pos] != '{' {
		return nil
	}
	depth, inString := 0, false
	for i := f.pos; ; {
		for buf := f.buf; i < len(buf); i++ {
			c := buf[i]
			if !structural[c] {
				continue
			}
			if inString {
				if c == '\\' {
					i++ // the escaped byte cannot end the string
				} else if c == '"' {
					inString = false
				}
				continue
			}
			switch c {
			case '"':
				inString = true
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return f.buf[f.pos : i+1]
				}
			}
		}
		at := i - f.pos
		if !f.fill() {
			return nil
		}
		i = f.pos + at
	}
}

// structural marks the bytes the framer acts on: quotes and escapes
// inside strings, brackets outside them.
var structural = [256]bool{'"': true, '\\': true, '{': true, '}': true, '[': true, ']': true}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// fill moves the unconsumed bytes to the front of the buffer and reads
// after them, growing the buffer by a chunk only when less than half a
// chunk is free. It reports whether there may be more to frame.
func (f *framer) fill() bool {
	if f.err != nil {
		return false
	}
	n := copy(f.buf, f.buf[f.pos:])
	f.buf, f.pos = f.buf[:n], 0
	if cap(f.buf)-n < frameChunk/2 {
		f.buf = slices.Grow(f.buf, frameChunk)
	}
	m, err := f.rd.Read(f.buf[n:cap(f.buf)])
	f.buf = f.buf[:n+m]
	f.err = err
	return m > 0 || err == nil
}

// rest replays the stream from f.pos: the unconsumed bytes, then the
// reader's error or, when it has none, the rest of the reader.
func (f *framer) rest() io.Reader {
	tail := f.rd
	if f.err != nil {
		tail = errReader{f.err}
	}
	return io.MultiReader(bytes.NewReader(f.buf[f.pos:]), tail)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

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
