package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"act/internal/acterr"
)

// oracleRead is the stream reader as encoding/json frames it: the
// contract ReadNDJSON keeps. It reports each record's raw bytes and
// stream offset.
func oracleRead(rd io.Reader, maxDevices int, fn func(i int, off int64, raw json.RawMessage) error) error {
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
		if err := fn(i, dec.InputOffset()-int64(len(raw)), raw); err != nil {
			return err
		}
	}
}

// oracleIngest is IngestNDJSON over oracleRead, each record decoded
// whole by ParseDevice.
func oracleIngest(reg *Registry, rd io.Reader, maxDevices int) (IngestResult, error) {
	var res IngestResult
	err := oracleRead(rd, maxDevices, func(i int, _ int64, raw json.RawMessage) error {
		dev, err := ParseDevice(raw)
		if err != nil {
			return prefixRecord(i, err)
		}
		replaced, err := reg.Upsert(*dev)
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

// frame is one record as a reader reported it.
type frame struct {
	i   int
	off int64
	raw string
}

// streamReaders are the ways a stream reaches a reader: whole, a byte
// per read, half of each read, its last bytes together with io.EOF, and
// cut off past limit bytes by a request-body limit, whole and a byte per
// read.
func streamReaders(data []byte, limit int) map[string]func() io.Reader {
	cut := func() io.Reader { return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), int64(limit)) }
	return map[string]func() io.Reader{
		"whole":          func() io.Reader { return bytes.NewReader(data) },
		"one-byte":       func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"half":           func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"data-err":       func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		"limit":          cut,
		"limit-one-byte": func() io.Reader { return iotest.OneByteReader(cut()) },
	}
}

// stopsAtError fails the test when it is read after its reader failed:
// the framer takes a reader's first error, io.EOF included, as the
// stream's last word, as encoding/json's decoder does inside a value.
type stopsAtError struct {
	t   *testing.T
	r   io.Reader
	err error
}

func (s *stopsAtError) Read(p []byte) (int, error) {
	if s.err != nil {
		s.t.Fatalf("read again after the reader failed with %v", s.err)
	}
	n, err := s.r.Read(p)
	s.err = err
	return n, err
}

// checkFraming holds ReadNDJSON to the oracle on one stream through
// every reader: the same records at the same offsets and the same error
// text. ReadNDJSON reports no offsets; each of its records must be the
// next value in the stream after whitespace, and the oracle's offsets
// are held to where that puts them. IngestNDJSON, which prices what it
// applies, is held to the oracle's applied count, registry and error
// text through the whole stream and through the byte-per-read cut one.
func checkFraming(t *testing.T, data []byte, limit, maxDevices int) {
	t.Helper()
	for name, reader := range streamReaders(data, limit) {
		var want, got []frame
		wantErr := oracleRead(reader(), maxDevices, func(i int, off int64, raw json.RawMessage) error {
			want = append(want, frame{i, off, string(raw)})
			return nil
		})
		pos := 0
		gotErr := ReadNDJSON(&stopsAtError{t: t, r: reader()}, maxDevices, func(i int, raw json.RawMessage) error {
			for pos < len(data) && isSpace(data[pos]) {
				pos++
			}
			if !bytes.HasPrefix(data[pos:], raw) {
				t.Fatalf("%s: record %d %q is not the stream's next value at %d\ninput: %q", name, i, raw, pos, data)
			}
			got = append(got, frame{i, int64(pos), string(raw)})
			pos += len(raw)
			return nil
		})
		if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ReadNDJSON framed %v, error %q\noracle framed %v, error %q\ninput: %q",
				name, got, errText(gotErr), want, errText(wantErr), data)
		}
		if name != "whole" && name != "limit-one-byte" {
			continue
		}
		wantReg, gotReg := New(Config{Shards: 4}), New(Config{Shards: 4})
		wantRes, wantErr := oracleIngest(wantReg, reader(), maxDevices)
		gotRes, gotErr := gotReg.IngestNDJSON(reader(), maxDevices)
		if gotRes != wantRes || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: IngestNDJSON %+v, error %q\noracle %+v, error %q\ninput: %q",
				name, gotRes, errText(gotErr), wantRes, errText(wantErr), data)
		}
		if !reflect.DeepEqual(gotReg.Summary(), wantReg.Summary()) {
			t.Fatalf("%s: registries differ\ningest: %+v\noracle: %+v\ninput: %q",
				name, gotReg.Summary(), wantReg.Summary(), data)
		}
	}
}

// frameSeeds are streams that test where a framer that counts depth
// could go wrong: brackets, quotes and backslashes inside strings,
// \u escapes, nested arrays, top-level values that are not objects,
// pretty-printed objects and a truncated tail, beside valid devices.
func frameSeeds(tb testing.TB) [][]byte {
	lines := benchLines(tb, 3, 2)
	valid := string(lines[0])
	pretty, err := json.MarshalIndent(json.RawMessage(lines[1]), "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	named := func(id string) string { return string(bytes.Replace(lines[2], []byte(`"dev-0000002"`), []byte(id), 1)) }
	return [][]byte{
		[]byte(valid + "\n" + string(pretty) + "\n" + string(lines[2]) + "\n"),
		[]byte(named(`"a{b}c[d]e"`) + named(`"q\"{"`) + named(`"bs\\"`) + named(`"bsq\\\"}"`)),
		[]byte(named(`"\u007b\u0022\u005c"`) + " " + named(`"\ud83d\ude00 \u007d"`)),
		[]byte(`{"id":"n","scenario":{"logic":[[1,[2,[3]]],[]]}}` + valid),
		[]byte(`1 2.5e3 -0` + "\n" + valid),
		[]byte(`"a" "b{" ` + valid),
		[]byte(`[1,{"a":[]}] ` + valid),
		[]byte(valid + "\n" + `{"id":"t","region":"world","scen`),
		[]byte(valid + "\n\t\r " + valid + `}`),
		[]byte(valid + valid + valid),
		[]byte(` {} {"id":"x"} {"id":1} {"id":"y","extra":true}`),
		[]byte(`{"id":"z","scenario":{"name":"x","name":"y"}}` + valid),
		[]byte(`{"a":"\` + "\x01" + `"}`),
		[]byte(`{"id":"l","region":"world","deployed":"2024-01-01","scenario":nope,"utilization":1}`),
		[]byte(`{"id":"l","region":"world","deployed":"2024-01-01","scenario":null}` + valid),
		[]byte(`{"id":"l","region":"world","deployed":"2024-01-01","scenario":true}` + valid),
		[]byte("\n\n  \n"),
		nil,
	}
}

// FuzzNDJSONFrame is the framing differential: ReadNDJSON and
// IngestNDJSON against encoding/json's decoder on arbitrary streams,
// arbitrary body limits and device caps, through every stream reader.
func FuzzNDJSONFrame(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add(s, uint16(len(s)/2), uint8(0))
		f.Add(s, uint16(len(s)), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, limit uint16, maxDevices uint8) {
		checkFraming(t, data, int(limit), int(maxDevices%8))
	})
}

// TestFramingMatchesDecoder runs the framing differential over every
// seed at every body limit, with and without a device cap, and over a
// scenario nested past encoding/json's depth bound.
func TestFramingMatchesDecoder(t *testing.T) {
	for _, s := range frameSeeds(t) {
		for limit := 0; limit <= len(s)+1; limit += 1 + len(s)/64 {
			checkFraming(t, s, limit, 0)
		}
		checkFraming(t, s, len(s), 1)
		checkFraming(t, s, len(s), 2)
	}
	deep := []byte(`{"id":"d","scenario":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`)
	checkFraming(t, deep, len(deep), 0)
}

// TestFramerTakesEscapes: records with brackets, quotes and backslashes
// inside their strings, \u escapes, or pretty-printed layout are framed
// and skimmed in the one scan, none handed to encoding/json.
func TestFramerTakesEscapes(t *testing.T) {
	for _, s := range frameSeeds(t)[:3] {
		n := 0
		err := scanNDJSON(bytes.NewReader(s), 0, func(i int, raw []byte, ds *DeviceSpec) error {
			if ds == nil {
				t.Errorf("record %d went to encoding/json: %q", i, raw)
			}
			n++
			return nil
		})
		if err != nil || n != bytes.Count(s, []byte(`"id"`)) {
			t.Fatalf("framed %d records, error %v: %q", n, err, s)
		}
	}
}
