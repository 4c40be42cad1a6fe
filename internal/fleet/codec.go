// Length-prefixed binary encoding shared by the snapshot format and the
// write-ahead log. Every multi-byte integer is little-endian; strings and
// byte slices are u32-length-prefixed; floats are raw IEEE-754 bits, which
// is what makes a snapshot round-trip byte-identical — totals are
// persisted verbatim, never re-derived through decimal text.

package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"act/internal/scenario"
)

// appendU32 .. appendBytes build frames in memory (the WAL path and the
// snapshot writer both frame records before writing).

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}
func appendString(b []byte, s string) []byte { return appendBytes(b, []byte(s)) }

// encodeRecord appends the full persistent form of a record: the device
// identity and window, the canonical scenario bytes, and the contribution
// as computed — replay and restore apply these verbatim.
func encodeRecord(b []byte, rec *record) []byte {
	b = appendString(b, rec.id)
	b = appendString(b, rec.region)
	b = appendI64(b, rec.deployed.UnixNano())
	b = appendI64(b, rec.retired.UnixNano())
	b = appendF64(b, rec.utilization)
	b = appendBytes(b, rec.bom.specJSON)
	b = appendString(b, rec.bom.node)
	b = appendF64(b, rec.contrib.embodiedG)
	b = appendF64(b, rec.contrib.embodiedShareG)
	b = appendF64(b, rec.contrib.operationalG)
	return b
}

// reader decodes the same forms from a stream, accumulating the first
// error so call sites stay linear.
type reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (d *reader) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

func (d *reader) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if _, err := io.ReadFull(d.r, d.buf[:4]); err != nil {
		d.fail(err)
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *reader) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if _, err := io.ReadFull(d.r, d.buf[:8]); err != nil {
		d.fail(err)
		return 0
	}
	return binary.LittleEndian.Uint64(d.buf[:8])
}

func (d *reader) i64() int64   { return int64(d.u64()) }
func (d *reader) f64() float64 { return math.Float64frombits(d.u64()) }

// maxChunk bounds one length-prefixed field, a hard stop against a
// corrupted length sending the reader into a multi-gigabyte allocation.
const maxChunk = 64 << 20

func (d *reader) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxChunk {
		d.fail(fmt.Errorf("fleet: corrupt length %d", n))
		return nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail(err)
		return nil
	}
	return p
}

func (d *reader) str() string { return string(d.bytes()) }

// decodeRecord reads one persistent record, its contribution verbatim. Its
// scenario is looked up in boms by digest; only a miss re-parses the bytes
// (recompute needs the spec) into an entry for the caller to retain.
func decodeRecord(d *reader, boms *bomTable) (*record, error) {
	rec := &record{}
	rec.id = d.str()
	rec.region = d.str()
	deployed := d.i64()
	retired := d.i64()
	rec.utilization = d.f64()
	specJSON := d.bytes()
	node := d.str()
	rec.contrib.embodiedG = d.f64()
	rec.contrib.embodiedShareG = d.f64()
	rec.contrib.operationalG = d.f64()
	if d.err != nil {
		return nil, d.err
	}
	rec.deployed = time.Unix(0, deployed).UTC()
	rec.retired = time.Unix(0, retired).UTC()
	id := bomID(sha256.Sum256(specJSON))
	if rec.bom = boms.entry(id); rec.bom != nil {
		return rec, nil
	}
	spec, err := scenario.Unmarshal(specJSON)
	if err != nil {
		return nil, fmt.Errorf("fleet: persisted scenario for %q: %w", rec.id, err)
	}
	rec.bom = &bom{id: id, spec: spec, specJSON: specJSON,
		key: spec.CanonicalKey(), node: node, class: canon(spec.Name)}
	return rec, nil
}
