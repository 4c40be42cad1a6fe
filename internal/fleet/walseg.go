// Segmented write-ahead log. The PR-4 WAL was one unbounded file; this is
// its crash-consistent successor: a directory of fixed-prefix segments
//
//	wal-%016d.seg
//
// each opened with a 20-byte header
//
//	magic "ACTWALSG" | u32 version (1) | u64 seq
//
// followed by ordinary WAL frames (wal.go). When the active segment
// reaches the configured size, it is sealed — a frame with op 4 whose
// payload is
//
//	u64 frame count | u64 rolling FNV-64a over every preceding frame's
//	raw bytes
//
// — fsynced, and a successor segment (seq+1) is created, headered,
// fsynced, and made durable with a directory fsync. The seal is the
// per-segment checksum: on recovery a non-last segment must end with a
// seal matching what was replayed, because the create-successor step only
// runs after the seal is durable; a non-last segment that does not is
// corrupt, not torn.
//
// Durability protocol per append: write the frame, fsync, and only then
// advance the committed size/frame-count/rolling-checksum. Any failure —
// short write, fsync error, failed rotation — truncates the file back to
// the committed size and flips the log into a broken state where every
// subsequent Append fails fast with the original cause. Probe repairs:
// re-truncate, fsync, and force a rotation to prove the whole
// create/sync/dir-sync path works before the log accepts appends again.
// The invariant bought by the rollback: the durable WAL never holds a
// frame the in-memory registry did not apply, except transiently during
// the append that is failing — and that frame is truncated away before
// the log ever accepts another.

package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
	"sync"

	"act/internal/faultinject"
	"act/internal/vfs"
)

const (
	segMagic   = "ACTWALSG"
	segVersion = 1
	// segHeaderLen is len(magic) + u32 version + u64 seq.
	segHeaderLen = 8 + 4 + 8
	// DefaultSegmentBytes is the rotation threshold when the caller does
	// not set one.
	DefaultSegmentBytes = 4 << 20
)

// ErrDegraded marks every write rejected because persistence cannot be
// guaranteed: the append (or a previous one) failed and the store is in
// read-only degraded mode until a Probe succeeds. The serving layer maps
// errors.Is(err, ErrDegraded) to the v1 "degraded" envelope code and a
// 503.
var ErrDegraded = errors.New("fleet: persistence degraded, store is read-only")

// fnvOffset64 is the FNV-64a offset basis, the rolling checksum's seed.
const fnvOffset64 = 14695981039346656037

// fnvAdd folds bytes into a running FNV-64a state.
func fnvAdd(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// segName formats the file name owning seq.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// parseSegName inverts segName; ok is false for anything else in the
// directory (quarantined segments, stray files).
func parseSegName(name string) (seq uint64, ok bool) {
	const pre, suf = "wal-", ".seg"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	mid := name[len(pre) : len(name)-len(suf)]
	if len(mid) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segHeader builds the 20-byte segment header.
func segHeader(seq uint64) []byte {
	b := make([]byte, 0, segHeaderLen)
	b = append(b, segMagic...)
	b = appendU32(b, segVersion)
	b = appendU64(b, seq)
	return b
}

// sealPayload builds the seal frame's payload.
func sealPayload(frames, roll uint64) []byte {
	b := []byte{opSeal}
	b = appendU64(b, frames)
	b = appendU64(b, roll)
	return b
}

// segWAL is the segmented log writer, the one sink a Registry logs
// mutations to. Append is atomic — a frame is either fully acknowledged
// or reported failed with the log positioned to accept the next frame —
// and safe for concurrent use.
type segWAL struct {
	mu    sync.Mutex
	fs    vfs.FS
	dir   string
	limit int64 // rotation threshold

	seq    uint64   // active segment's sequence number
	f      vfs.File // active segment handle
	size   int64    // committed (written+fsynced+accounted) bytes
	frames uint64   // committed frames in the active segment
	roll   uint64   // rolling checksum over committed frame bytes

	sealed map[uint64]int64 // sizes of sealed, not-yet-dropped segments
	broken error            // first persistence failure; nil = healthy
}

func newSegWAL(fsys vfs.FS, dir string, limit int64) *segWAL {
	if limit <= 0 {
		limit = DefaultSegmentBytes
	}
	return &segWAL{fs: fsys, dir: dir, limit: limit, roll: fnvOffset64, sealed: map[uint64]int64{}}
}

// adopt resumes appending to an existing segment file whose valid prefix
// recovery already replayed: f is positioned at the end of that prefix,
// and size/frames/roll describe it.
func (w *segWAL) adopt(f vfs.File, seq uint64, size int64, frames, roll uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f, w.seq, w.size, w.frames, w.roll = f, seq, size, frames, roll
}

// createFresh opens a brand-new active segment with the given seq:
// create, header, fsync, directory fsync.
func (w *segWAL) createFresh(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.createLocked(seq)
}

func (w *segWAL) createLocked(seq uint64) error {
	f, err := w.fs.Create(path.Join(w.dir, segName(seq)))
	if err != nil {
		return fmt.Errorf("fleet: wal segment %d: %w", seq, err)
	}
	hdr := segHeader(seq)
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("fleet: wal segment %d header: %w", seq, err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("fleet: wal segment %d dir sync: %w", seq, err)
	}
	if w.f != nil {
		_ = w.f.Close()
	}
	w.f, w.seq, w.size, w.frames, w.roll = f, seq, int64(len(hdr)), 0, fnvOffset64
	return nil
}

// Append writes one frame durably: frame bytes, fsync, commit, and —
// past the size threshold — a rotation. Every failure path truncates
// back to the committed size and breaks the log (see package comment).
func (w *segWAL) Append(payload []byte) error {
	frame := frameBytes(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, w.broken)
	}
	if w.f == nil {
		return fmt.Errorf("%w: no active segment", ErrDegraded)
	}
	preSize, preFrames, preRoll := w.size, w.frames, w.roll
	_, err := w.f.Write(frame)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.failLocked(fmt.Errorf("fleet: wal append: %w", err))
		return fmt.Errorf("%w: %v", ErrDegraded, w.broken)
	}
	w.size += int64(len(frame))
	w.frames++
	w.roll = fnvAdd(w.roll, frame)
	if w.size >= w.limit {
		if err := w.rotateLocked(); err != nil {
			// Uncommit the frame: the registry will not apply this
			// operation, so the durable log must not keep it either —
			// failLocked truncates it (and any seal remnant) back off.
			w.size, w.frames, w.roll = preSize, preFrames, preRoll
			w.failLocked(fmt.Errorf("fleet: wal rotate: %w", err))
			return fmt.Errorf("%w: %v", ErrDegraded, w.broken)
		}
	}
	return nil
}

// failLocked records the first failure and tries to restore the on-disk
// file to the committed prefix so the broken state is re-enterable.
func (w *segWAL) failLocked(cause error) {
	if w.broken == nil {
		w.broken = cause
	}
	if w.f != nil {
		// Best effort: if the filesystem is truly gone these fail too, and
		// recovery's torn-tail handling covers the leftovers. The seek
		// matters as much as the truncate — a file offset past the
		// truncation point would zero-fill a hole under the next frame.
		if err := w.f.Truncate(w.size); err == nil {
			if _, err := w.f.Seek(w.size, io.SeekStart); err == nil {
				_ = w.f.Sync()
			}
		}
	}
}

// rotateLocked seals the active segment and opens its successor. On
// error the caller owns cleanup; the seal bytes (possibly torn) past the
// committed size are what failLocked truncates away.
func (w *segWAL) rotateLocked() error {
	if err := faultinject.VisitNoCtx(faultinject.SiteWALRotate); err != nil {
		return err
	}
	seal := frameBytes(sealPayload(w.frames, w.roll))
	_, err := w.f.Write(seal)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("seal segment %d: %w", w.seq, err)
	}
	sealedSize := w.size + int64(len(seal))
	if err := w.createLocked(w.seq + 1); err != nil {
		// The seal is durable but the successor is not; failLocked
		// truncates the seal back off and the segment stays active.
		return err
	}
	w.sealed[w.seq-1] = sealedSize
	return nil
}

// Rotate forces a rotation — the checkpoint path uses it to start a
// fresh segment whose seq becomes the snapshot's replay floor. It
// returns the new active seq.
func (w *segWAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrDegraded, w.broken)
	}
	if err := w.rotateLocked(); err != nil {
		w.failLocked(fmt.Errorf("fleet: wal rotate: %w", err))
		return 0, fmt.Errorf("%w: %v", ErrDegraded, w.broken)
	}
	return w.seq, nil
}

// DropBelow deletes sealed segments with seq < floor — the compaction
// step, called only after a checkpoint covering them is durably renamed
// in. The removals are made durable with one directory fsync.
func (w *segWAL) DropBelow(floor uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	dropped := false
	for seq := range w.sealed {
		if seq < floor {
			if err := w.fs.Remove(path.Join(w.dir, segName(seq))); err != nil {
				return fmt.Errorf("fleet: wal drop segment %d: %w", seq, err)
			}
			delete(w.sealed, seq)
			dropped = true
		}
	}
	if !dropped {
		return nil
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("fleet: wal drop dir sync: %w", err)
	}
	return nil
}

// trackSealed registers a sealed segment recovery found on disk, so
// Stats and DropBelow know about it.
func (w *segWAL) trackSealed(seq uint64, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sealed[seq] = size
}

// Broken reports the poisoning failure, nil when healthy.
func (w *segWAL) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Probe attempts to bring a broken log back: discard the active segment's
// uncommitted suffix and prove writability by rotating into a fresh
// segment. On success the log accepts appends again.
func (w *segWAL) Probe() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil {
		return nil
	}
	if w.f == nil {
		return fmt.Errorf("%w: no active segment", ErrDegraded)
	}
	if err := w.f.Truncate(w.size); err != nil {
		return fmt.Errorf("fleet: wal probe truncate: %w", err)
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return fmt.Errorf("fleet: wal probe seek: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleet: wal probe sync: %w", err)
	}
	if err := w.rotateLocked(); err != nil {
		return fmt.Errorf("fleet: wal probe rotate: %w", err)
	}
	w.broken = nil
	return nil
}

// Stats reports the live segment count (sealed + active) and total WAL
// bytes, the numbers behind actd_fleet_wal_segments / _bytes.
func (w *segWAL) Stats() (segments int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	segments = len(w.sealed)
	bytes = 0
	for _, sz := range w.sealed {
		bytes += sz
	}
	if w.f != nil {
		segments++
		bytes += w.size
	}
	return segments, bytes
}

// Close closes the active segment handle. The log is unusable afterwards.
func (w *segWAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// segReplay is what replaying one segment file yields.
type segReplay struct {
	applied  int   // operations applied to the registry
	validLen int64 // bytes up to and including the last good frame (header included)
	frames   uint64
	roll     uint64
	sealed   bool  // ended with a matching seal
	corrupt  error // non-nil: corruption classification (torn tails are not corruption)
}

// replaySegment walks one segment's frames. With apply=false it only
// validates — header, per-frame checksums, the seal — touching no
// registry state; with apply=true it additionally applies each frame
// (the caller write-holds r.mu via replaySegmentFile). Recovery always
// scans first and applies second, so a corrupt segment contributes
// nothing: applying a prefix and then quarantining the file would lose
// that prefix on the next reopen.
//
// Reading stops at the seal, a torn tail, or the first corrupt frame;
// corruption is reported in the result, not as err, so the caller can
// run the quarantine policy. err is reserved for apply-side failures (a
// frame that decodes but cannot be applied), which abort recovery.
func (r *Registry) replaySegment(ctx context.Context, rd io.Reader, wantSeq uint64, apply bool) (segReplay, error) {
	var res segReplay
	res.roll = fnvOffset64

	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(rd, hdr); err != nil {
		res.corrupt = fmt.Errorf("%w: segment header: %v", errCorruptFrame, err)
		return res, nil
	}
	if string(hdr[:8]) != segMagic {
		res.corrupt = fmt.Errorf("%w: bad segment magic %q", errCorruptFrame, hdr[:8])
		return res, nil
	}
	d := &reader{r: strings.NewReader(string(hdr[8:]))}
	if v := d.u32(); v != segVersion {
		res.corrupt = fmt.Errorf("%w: unsupported segment version %d", errCorruptFrame, v)
		return res, nil
	}
	if seq := d.u64(); seq != wantSeq {
		res.corrupt = fmt.Errorf("%w: segment header seq %d, file name says %d", errCorruptFrame, seq, wantSeq)
		return res, nil
	}
	res.validLen = segHeaderLen

	for {
		payload, frameLen, err := readFrame(rd)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return res, nil // clean end or torn tail
			}
			res.corrupt = err
			return res, nil
		}
		if payload[0] == opSeal {
			sd := &reader{r: strings.NewReader(string(payload[1:]))}
			frames, roll := sd.u64(), sd.u64()
			if sd.err != nil || frames != res.frames || roll != res.roll {
				res.corrupt = fmt.Errorf("%w: seal mismatch (seal %d/%#x, replayed %d/%#x)",
					errCorruptFrame, frames, roll, res.frames, res.roll)
				return res, nil
			}
			// Anything after a valid seal was never written by this code.
			if _, err := rd.Read(make([]byte, 1)); err != io.EOF {
				res.corrupt = fmt.Errorf("%w: bytes after seal", errCorruptFrame)
				return res, nil
			}
			res.sealed = true
			res.validLen += frameLen
			return res, nil
		}
		if apply {
			if err := r.applyFrame(ctx, payload); err != nil {
				return res, fmt.Errorf("fleet: wal segment %d frame %d: %w", wantSeq, res.frames, err)
			}
			res.applied++
		}
		res.frames++
		res.roll = fnvAdd(res.roll, frameBytes(payload))
		res.validLen += frameLen
	}
}
