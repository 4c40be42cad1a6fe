// Package vfs is the durability seam between the fleet persistence layer
// and the filesystem: a minimal virtual-filesystem abstraction over the
// handful of operations crash-consistent storage actually needs — create,
// append, fsync, rename, directory sync — with two implementations.
//
// OS passes straight through to the os package and, under the
// `faultinject` build tag, visits the vfs.sync chaos site before every
// fsync so the chaos storm can fail durability barriers on a live actd.
//
// MemFS (memfs.go) is a deterministic in-memory filesystem that models
// what a power loss actually does to files: data is volatile until the
// file is fsynced, directory operations (create, rename, remove) are
// volatile until the directory is fsynced, and a crash can tear the
// unsynced tail of a file at an arbitrary byte. It can inject ENOSPC
// (with short writes), fsync failures, and a full stop after the N-th
// mutating operation — which is what makes "crash after every single
// VFS op and prove recovery" a deterministic loop instead of a flaky
// integration test.
//
// The durability contract callers must follow (and MemFS enforces by
// losing data when they do not):
//
//   - file contents are durable only up to the last successful Sync;
//   - a created or renamed name is durable only after SyncDir of its
//     parent directory;
//   - a crash may additionally persist any prefix of the bytes written
//     since the last Sync (the torn tail).
package vfs

import (
	"errors"
	"io"
)

// File is an open file handle. Implementations are not safe for
// concurrent use; callers serialize access (the WAL holds a mutex).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes written bytes to durable storage. Until it returns
	// nil, everything written since the previous Sync may be lost — or
	// partially lost — in a crash.
	Sync() error
	// Truncate cuts the file to size bytes. Like writes, the truncation
	// is durable only after Sync.
	Truncate(size int64) error
	// Name reports the path the file was opened with.
	Name() string
}

// Info is what MemFS.Stat reports about a name: the test-side inspector
// of a simulated disk. The persistence layer itself never stats.
type Info struct {
	Size  int64
	IsDir bool
}

// FS is the filesystem surface the durability layer writes through.
type FS interface {
	// Create opens name read-write, creating it and truncating any
	// previous content. The new name is durable only after SyncDir.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenRW opens name read-write without truncating, creating it if
	// absent — the reopen-replay-continue path for an active WAL segment.
	OpenRW(name string) (File, error)
	// Rename atomically replaces newname with oldname. The swap is
	// durable only after SyncDir of the parent.
	Rename(oldname, newname string) error
	// Remove deletes name; durable only after SyncDir.
	Remove(name string) error
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir flushes dir's entries — creates, renames and removes since
	// the last SyncDir — to durable storage.
	SyncDir(dir string) error
}

// ErrNoSpace is the injected out-of-space failure MemFS returns once its
// byte budget is exhausted; the real filesystem surfaces ENOSPC through
// the usual *os.PathError instead. Write errors of either kind are what
// flip the fleet store into degraded mode.
var ErrNoSpace = errors.New("vfs: no space left on device")

// ErrCrashed is returned by every MemFS operation after the configured
// crash point: the simulated machine is off. Callers see it exactly once
// per op they attempt, the way a dying disk returns EIO until the end.
var ErrCrashed = errors.New("vfs: simulated crash (filesystem offline)")

// ErrInjectedSyncFailure is the default error MemFS returns from a Sync
// made to fail via FailSyncs.
var ErrInjectedSyncFailure = errors.New("vfs: injected fsync failure")
