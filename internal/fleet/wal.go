// Write-ahead log frames. Every mutation is framed and appended to the
// segmented WAL (walseg.go) before the shard's in-memory state changes,
// so a crash between a snapshot and now loses nothing: recovery restores
// the snapshot, then replays the segments (persist.go).
//
// Frame layout (little-endian, see codec.go):
//
//	u32 payload length | payload | u64 FNV-64a checksum of the payload
//
// The payload's first byte is the operation:
//
//	1 upsert    — one encoded record, contribution included, applied
//	              verbatim on replay (no re-evaluation, so replay lands on
//	              byte-identical totals)
//	2 remove    — the device id
//	3 recompute — no body; replay re-runs the model-table recomputation at
//	              this point in the history
//
// Appends happen under the owning shard's lock (fleet.go), which fixes
// the relative order of operations on any one device; segWAL.mu
// serializes frames from different shards.
//
// A frame cut short by a crash mid-append is a torn tail: segment replay
// stops before it and recovery truncates it away. A frame that is
// complete but fails its checksum is corruption, not a torn tail, and
// quarantines its segment.

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

const (
	opUpsert    = 1
	opRemove    = 2
	opRecompute = 3
	// opSeal terminates a finished WAL segment (walseg.go): its payload is
	// the segment's frame count and rolling checksum. It never reaches
	// applyFrame — segment replay consumes it as the end-of-segment marker.
	opSeal = 4
)

// errCorruptFrame classifies a frame that is structurally complete but
// wrong — checksum mismatch, implausible length, empty payload. Distinct
// from a torn tail (io.EOF / io.ErrUnexpectedEOF), which is the expected
// signature of a crash mid-append: torn tails are truncated away, corrupt
// frames quarantine the segment.
var errCorruptFrame = errors.New("fleet: corrupt wal frame")

// frameBytes wraps a payload in the wire frame: u32 length | payload |
// u64 FNV-64a of the payload. Append and segment replay share it so the
// rolling segment checksum hashes identical bytes on both sides.
func frameBytes(payload []byte) []byte {
	frame := make([]byte, 0, len(payload)+12)
	frame = appendU32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	h := fnv.New64a()
	_, _ = h.Write(payload)
	frame = appendU64(frame, h.Sum64())
	return frame
}

func encodeUpsert(rec *record) []byte {
	b := []byte{opUpsert}
	return encodeRecord(b, rec)
}

func encodeRemove(id string) []byte {
	b := []byte{opRemove}
	return appendString(b, id)
}

// attachWAL starts logging every subsequent mutation to w. Attach only
// after the state a recovery loaded is complete. Passing nil detaches.
func (r *Registry) attachWAL(w *segWAL) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = w
}

// readFrame reads one complete frame and verifies its checksum. io.EOF at
// the frame boundary means a clean end; io.ErrUnexpectedEOF anywhere
// inside the frame means a torn tail.
func readFrame(rd io.Reader) (payload []byte, frameLen int64, err error) {
	d := &reader{r: rd}
	payload = d.bytes()
	sum := d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	if len(payload) == 0 {
		return nil, 0, fmt.Errorf("%w: empty frame", errCorruptFrame)
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	if h.Sum64() != sum {
		return nil, 0, fmt.Errorf("%w: frame checksum mismatch", errCorruptFrame)
	}
	return payload, int64(len(payload)) + 12, nil
}

// applyFrame performs one logged operation without re-logging it. The
// caller write-holds r.mu.
func (r *Registry) applyFrame(ctx context.Context, payload []byte) error {
	op, body := payload[0], payload[1:]
	switch op {
	case opUpsert:
		rec, err := decodeRecord(&reader{r: bytes.NewReader(body)}, &r.boms)
		if err != nil {
			return err
		}
		_, err = r.apply(rec, false)
		return err
	case opRemove:
		d := &reader{r: bytes.NewReader(body)}
		id := d.str()
		if d.err != nil {
			return d.err
		}
		_, err := r.remove(id, false)
		return err
	case opRecompute:
		return r.recomputeLocked(ctx)
	default:
		return fmt.Errorf("unknown wal op %d", op)
	}
}
