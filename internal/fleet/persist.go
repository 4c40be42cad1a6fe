// The durable fleet store: snapshot + segmented WAL + recovery, glued to
// a vfs.FS so the crash harness can run the identical code against the
// simulated filesystem. On-disk layout:
//
//	<SnapshotPath>             enveloped snapshot (below)
//	<WALDir>/wal-…0042.seg     WAL segments (walseg.go)
//	<WALDir>/…seg.quarantine   corrupt segments, renamed aside, never deleted
//
// The snapshot file is the PR-4 self-checksummed registry snapshot
// ("ACTFLEET", snapshot.go) wrapped in a small envelope:
//
//	magic "ACTDSNAP" | u32 version (1) | u64 floor | u8 flags |
//	u64 FNV-64a of the preceding envelope bytes
//
// floor is the first WAL segment sequence NOT covered by the snapshot.
// It is what makes compaction crash-safe: segments below the floor are
// replayed by no one and deleted on sight, so a crash between the
// snapshot rename and the segment deletion cannot double-apply history.
// flags is written as 0 and ignored on read; it stays so format version 1
// is unchanged.
//
// Checkpoint ordering (all under the registry write lock, so no append
// can interleave): rotate the WAL — the new active segment's seq is the
// floor — then stream the snapshot to a temp file, fsync, rename over
// the live snapshot, fsync the directory. Only after all of that do the
// covered segments get deleted.
//
// Recovery replays the snapshot, drops sub-floor segments, then replays
// segments in sequence order. A corrupt segment is quarantined — renamed
// aside with a logged reason, never deleted, acked operations preserved
// for forensics — and every later segment cascades with it, because
// applying operations with a hole in front of them would corrupt totals
// silently. A torn tail on the last segment is normal crash debris: the
// valid prefix is adopted as the active segment. A corrupt snapshot is
// refused outright — serving wrong totals is worse than not serving.

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"sync"
	"sync/atomic"

	"act/internal/faultinject"
	"act/internal/vfs"
)

const (
	envMagic   = "ACTDSNAP"
	envVersion = 1
)

// StoreConfig wires a durable Store.
type StoreConfig struct {
	// FS is the filesystem to persist through (default the real one).
	FS vfs.FS
	// SnapshotPath is the enveloped snapshot file.
	SnapshotPath string
	// WALDir holds the WAL segments. It is created if absent; a regular
	// file at the path fails OpenStore.
	WALDir string
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Logf, when set, receives recovery and quarantine diagnostics.
	Logf func(format string, args ...any)
	// OnQuarantine, when set, is called once per quarantined segment after
	// the rename — the metrics hook.
	OnQuarantine func(name, reason string)
}

func (c StoreConfig) withDefaults() (StoreConfig, error) {
	if c.FS == nil {
		c.FS = vfs.OS{}
	}
	if c.SnapshotPath == "" || c.WALDir == "" {
		return c, errors.New("fleet: store needs SnapshotPath and WALDir")
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Store is a Registry's durable home. All methods are safe for
// concurrent use; one Store owns its snapshot path and WAL directory
// exclusively.
type Store struct {
	cfg StoreConfig
	fs  vfs.FS
	reg *Registry
	w   *segWAL

	mu          sync.Mutex // serializes checkpoints and probes
	quarantined atomic.Int64
	floor       atomic.Uint64 // first WAL seq not covered by the snapshot
	stale       bool
}

// OpenStore recovers reg's state from disk (snapshot, then WAL segments)
// and attaches the segmented WAL so every subsequent mutation is logged
// durably. reg should be freshly built; its contents are replaced. stale
// is reported through Store.Stale: the snapshot predates this binary's
// model tables and the caller should Recompute.
func OpenStore(ctx context.Context, reg *Registry, cfg StoreConfig) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, fs: cfg.FS, reg: reg}

	if err := s.fs.MkdirAll(cfg.WALDir); err != nil {
		return nil, fmt.Errorf("fleet: store: %w", err)
	}

	floor, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	s.floor.Store(floor)
	w, err := s.recoverSegments(ctx, floor)
	if err != nil {
		return nil, err
	}
	s.w = w
	reg.attachWAL(w)
	return s, nil
}

// loadSnapshot restores the enveloped snapshot if one exists. A corrupt
// snapshot (bad envelope, bad checksum, truncated body) is a fatal open
// error: recovery has no state to stand on.
func (s *Store) loadSnapshot() (floor uint64, err error) {
	f, err := s.fs.Open(s.cfg.SnapshotPath)
	if err != nil {
		return 0, nil // no snapshot yet: empty state, replay everything
	}
	defer f.Close()

	if floor, err = readEnvelope(f); err != nil {
		return 0, fmt.Errorf("fleet: snapshot %s: %w", s.cfg.SnapshotPath, err)
	}
	stale, err := s.reg.Restore(f)
	if err != nil {
		return 0, err
	}
	s.stale = stale
	return floor, nil
}

// readEnvelope reads and verifies the snapshot envelope envelopeHeader
// writes, returning its WAL floor; the snapshot body follows in rd.
func readEnvelope(rd io.Reader) (floor uint64, err error) {
	hdr := make([]byte, 8+4+8+1+8)
	if _, err := io.ReadFull(rd, hdr[:8]); err != nil {
		return 0, fmt.Errorf("envelope: %w", err)
	}
	if string(hdr[:8]) != envMagic {
		return 0, fmt.Errorf("unrecognized magic %q", hdr[:8])
	}
	if _, err := io.ReadFull(rd, hdr[8:]); err != nil {
		return 0, fmt.Errorf("envelope: %w", err)
	}
	d := &reader{r: bytes.NewReader(hdr[8:])}
	version := d.u32()
	floor = d.u64()
	_, _ = io.CopyN(io.Discard, d.r, 1) // flags: checksummed, otherwise unread
	sum := d.u64()
	if version != envVersion {
		return 0, fmt.Errorf("envelope version %d unsupported", version)
	}
	if fnvAdd(fnvOffset64, hdr[:8+4+8+1]) != sum {
		return 0, errors.New("envelope checksum mismatch")
	}
	return floor, nil
}

// envelopeHeader builds the snapshot envelope, flags byte 0.
func envelopeHeader(floor uint64) []byte {
	b := make([]byte, 0, 8+4+8+1+8)
	b = append(b, envMagic...)
	b = appendU32(b, envVersion)
	b = appendU64(b, floor)
	b = append(b, 0) // flags
	return appendU64(b, fnvAdd(fnvOffset64, b))
}

// quarantine renames a corrupt segment aside and accounts for it. The
// rename is made durable so the segment cannot come back as live WAL
// after the next crash.
func (s *Store) quarantine(name, reason string) error {
	from := path.Join(s.cfg.WALDir, name)
	to := from + ".quarantine"
	if err := s.fs.Rename(from, to); err != nil {
		return fmt.Errorf("fleet: quarantine %s: %w", name, err)
	}
	if err := s.fs.SyncDir(s.cfg.WALDir); err != nil {
		return fmt.Errorf("fleet: quarantine %s: %w", name, err)
	}
	s.quarantined.Add(1)
	s.cfg.Logf("fleet: quarantined wal segment %s: %s", name, reason)
	if s.cfg.OnQuarantine != nil {
		s.cfg.OnQuarantine(name, reason)
	}
	return nil
}

// recoverSegments replays every live segment at or above the snapshot's
// floor, applies the quarantine policy, and returns the attached,
// append-ready segmented WAL.
func (s *Store) recoverSegments(ctx context.Context, floor uint64) (*segWAL, error) {
	names, err := s.fs.ReadDir(s.cfg.WALDir)
	if err != nil {
		return nil, fmt.Errorf("fleet: store: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSegName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	// ReadDir is sorted and segment names are fixed-width, so seqs is
	// ascending.

	w := newSegWAL(s.fs, s.cfg.WALDir, s.cfg.SegmentBytes)
	nextSeq := floor
	if nextSeq == 0 {
		nextSeq = 1
	}

	// Drop segments the snapshot already covers: their operations are in
	// the restored state, replaying them would double-apply.
	live := seqs[:0]
	dropped := false
	for _, seq := range seqs {
		if seq < floor {
			if err := s.fs.Remove(path.Join(s.cfg.WALDir, segName(seq))); err != nil {
				return nil, fmt.Errorf("fleet: store: drop covered segment %d: %w", seq, err)
			}
			dropped = true
			continue
		}
		live = append(live, seq)
	}
	if dropped {
		if err := s.fs.SyncDir(s.cfg.WALDir); err != nil {
			return nil, fmt.Errorf("fleet: store: %w", err)
		}
	}

	for i, seq := range live {
		isLast := i == len(live)-1
		name := segName(seq)
		f, err := s.fs.Open(path.Join(s.cfg.WALDir, name))
		if err != nil {
			return nil, fmt.Errorf("fleet: store: open segment %d: %w", seq, err)
		}
		// Scan first, apply second: a segment found corrupt must
		// contribute nothing, or its applied prefix would silently vanish
		// on the next reopen once the file is quarantined away.
		scan, err := s.reg.replaySegmentFile(ctx, f, seq, false)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		if nextSeq <= seq {
			nextSeq = seq + 1
		}

		corrupt := scan.corrupt
		if corrupt == nil && !isLast && !scan.sealed {
			// A successor exists, so the seal must have been durable before
			// it was created; a missing seal here is corruption, not a torn
			// tail.
			corrupt = fmt.Errorf("%w: segment %d unsealed but not last", errCorruptFrame, seq)
		}
		if corrupt != nil {
			_ = f.Close()
			// The whole segment goes aside — its frames, acknowledged or
			// not, are preserved in the quarantine file and counted as
			// lost; everything after it cascades, because totals must not
			// be rebuilt across a hole in the history.
			if err := s.quarantine(name, corrupt.Error()); err != nil {
				return nil, err
			}
			for _, later := range live[i+1:] {
				if err := s.quarantine(segName(later),
					fmt.Sprintf("follows quarantined segment %d", seq)); err != nil {
					return nil, err
				}
				if nextSeq <= later {
					nextSeq = later + 1
				}
			}
			if err := w.createFresh(nextSeq); err != nil {
				return nil, err
			}
			return w, nil
		}

		// The scan passed: rewind and apply for real.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("fleet: store: segment %d: %w", seq, err)
		}
		res, err := s.reg.replaySegmentFile(ctx, f, seq, true)
		_ = f.Close()
		if err != nil {
			return nil, err // apply-side failure: recovery cannot proceed
		}

		switch {
		case isLast && !res.sealed:
			// Normal crash debris at worst: adopt the valid prefix as the
			// active segment, truncating any torn tail away.
			af, err := s.fs.OpenRW(path.Join(s.cfg.WALDir, name))
			if err != nil {
				return nil, fmt.Errorf("fleet: store: adopt segment %d: %w", seq, err)
			}
			if err := af.Truncate(res.validLen); err == nil {
				err = af.Sync()
			}
			if err != nil {
				_ = af.Close()
				return nil, fmt.Errorf("fleet: store: adopt segment %d: %w", seq, err)
			}
			if _, err := af.Seek(res.validLen, io.SeekStart); err != nil {
				_ = af.Close()
				return nil, fmt.Errorf("fleet: store: adopt segment %d: %w", seq, err)
			}
			w.adopt(af, seq, res.validLen, res.frames, res.roll)
			return w, nil
		default:
			w.trackSealed(seq, res.validLen)
		}
	}

	// No adoptable segment (none live, or the last one was sealed): open a
	// fresh active segment.
	if err := w.createFresh(nextSeq); err != nil {
		return nil, err
	}
	return w, nil
}

// replaySegmentFile wraps replaySegment in the registry write lock.
func (r *Registry) replaySegmentFile(ctx context.Context, f vfs.File, seq uint64, apply bool) (segReplay, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replaySegment(ctx, f, seq, apply)
}

// Checkpoint compacts: snapshot the registry, then drop the WAL history
// the snapshot covers. A failed checkpoint leaves the previous snapshot
// and the full WAL as the durable truth — the temp-file-plus-rename
// dance never exposes a partial snapshot — and does not degrade the
// store: appends continue into the rotated segment either way.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := faultinject.VisitNoCtx(faultinject.SiteFleetCompact); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	var floor uint64
	tmp := s.cfg.SnapshotPath + ".tmp"
	err := s.reg.CheckpointFunc(func(snapshot func(io.Writer) error) error {
		newSeq, err := s.w.Rotate()
		if err != nil {
			return err
		}
		floor = newSeq
		f, err := s.fs.Create(tmp)
		if err != nil {
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
		if _, err = f.Write(envelopeHeader(floor)); err == nil {
			err = snapshot(f)
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			_ = s.fs.Remove(tmp)
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
		if err := s.fs.Rename(tmp, s.cfg.SnapshotPath); err != nil {
			_ = s.fs.Remove(tmp)
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
		if err := s.fs.SyncDir(path.Dir(s.cfg.SnapshotPath)); err != nil {
			return fmt.Errorf("fleet: checkpoint: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The snapshot is durable; history below the floor is dead weight.
	s.floor.Store(floor)
	return s.w.DropBelow(floor)
}

// Probe tries to lift degraded mode: discard the broken WAL tail and
// prove writability with a fresh rotation. Safe to call when healthy.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Probe()
}

// Degraded reports whether the store is read-only, and why.
func (s *Store) Degraded() (bool, string) {
	err := s.w.Broken()
	if err == nil {
		return false, ""
	}
	return true, err.Error()
}

// Stale reports that the recovered snapshot was written under different
// model tables than this binary's; the caller should Recompute.
func (s *Store) Stale() bool { return s.stale }

// WALSegments counts live segments (sealed + active).
func (s *Store) WALSegments() int {
	n, _ := s.w.Stats()
	return n
}

// WALBytes totals live WAL bytes.
func (s *Store) WALBytes() int64 {
	_, b := s.w.Stats()
	return b
}

// QuarantinedTotal counts segments quarantined over this Store's life.
func (s *Store) QuarantinedTotal() int64 { return s.quarantined.Load() }

// Registry returns the registry this store persists.
func (s *Store) Registry() *Registry { return s.reg }

// Close detaches the WAL and closes the active segment. The registry
// stays queryable; further mutations are no longer logged, so callers
// stop writing first.
func (s *Store) Close() error {
	s.reg.attachWAL(nil)
	return s.w.Close()
}
