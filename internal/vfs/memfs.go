// MemFS: the deterministic crash-simulation filesystem. It models the
// durability semantics of a real disk under power loss:
//
//   - Every file has live content (what readers see now) and durable
//     content (what survives a crash). Write mutates only live content;
//     Sync promotes live to durable.
//   - The namespace — which names exist, what they point to — has the
//     same split: Create/Rename/Remove mutate the live namespace;
//     SyncDir commits that directory's entries to the durable namespace.
//     A file created and fsynced but whose directory was never fsynced
//     is GONE after a crash, exactly the failure tmp+rename+dirsync
//     exists to prevent.
//   - A crash may persist any prefix of a file's unsynced tail (the torn
//     write), drawn from a seeded generator so every run is replayable.
//
// Fault knobs: SetCrashAfter(k) kills the filesystem at the k-th mutating
// operation (the crashing write's bytes still reach live content, so the
// torn-tail logic can tear the in-flight frame); SetDiskCap(n) caps total
// live bytes and serves ErrNoSpace with a short write beyond it;
// FailSyncs(n) fails the next n durability barriers. Crash() performs the
// power cycle: the durable view becomes the new live view.

package vfs

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"sync"
	"syscall"
)

type memNode struct {
	content    []byte // live bytes
	durable    []byte // bytes as of the last successful Sync
	hasDurable bool
}

// MemFS is an in-memory FS with crash simulation. All methods are safe
// for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	live    map[string]*memNode // live namespace: path -> node
	durable map[string]*memNode // namespace as of the last SyncDir, per directory
	dirs    map[string]bool     // directories (durable immediately; see doc)

	ops     int // mutating operations performed
	crashAt int // 1-based op index that triggers the crash; 0 = never
	down    bool

	rng       uint64 // torn-tail generator state
	capBytes  int64  // total live-byte budget; 0 = unlimited
	failSyncs int    // Sync/SyncDir calls left to fail
}

// NewMemFS builds an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		live:    map[string]*memNode{},
		durable: map[string]*memNode{},
		dirs:    map[string]bool{},
	}
}

// SetCrashAfter arms the crash: the k-th mutating operation from the
// filesystem's birth fails with ErrCrashed, and every operation after it
// keeps failing until Crash() power-cycles the machine. k <= 0 disarms.
func (m *MemFS) SetCrashAfter(k int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = k
}

// SetTornSeed seeds the generator that decides how many unsynced bytes
// survive a crash per file.
func (m *MemFS) SetTornSeed(seed uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rng = seed
}

// SetDiskCap bounds total live bytes; writes that would exceed it apply
// a short write and return ErrNoSpace. 0 removes the bound.
func (m *MemFS) SetDiskCap(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.capBytes = n
}

// FailSyncs makes the next n Sync/SyncDir calls fail with
// ErrInjectedSyncFailure (after counting as mutating operations).
func (m *MemFS) FailSyncs(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncs = n
}

// Used reports total live bytes across all files — the number SetDiskCap
// budgets against.
func (m *MemFS) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usedLocked()
}

// Ops reports how many mutating operations have run — the pre-pass a
// crash-at-every-op harness uses to size its loop.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Down reports whether the simulated machine is off (crash point passed).
func (m *MemFS) Down() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// Crash power-cycles the machine: every file reverts to its durable
// content plus a torn prefix of its unsynced tail, the namespace reverts
// to its last dir-synced state, and the filesystem comes back up with the
// crash disarmed. Open handles from before the crash keep writing into
// orphaned nodes and touch nothing the recovered filesystem sees.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	newLive := make(map[string]*memNode, len(m.durable))
	for p, n := range m.durable {
		base := n.durable
		content := append([]byte(nil), base...)
		if len(n.content) > len(base) && bytes.Equal(n.content[:len(base)], base) {
			extra := n.content[len(base):]
			content = append(content, extra[:m.tornLocked(len(extra))]...)
		}
		recovered := append([]byte(nil), content...)
		newLive[p] = &memNode{content: content, durable: recovered, hasDurable: true}
	}
	m.live = newLive
	m.durable = make(map[string]*memNode, len(newLive))
	for p, n := range newLive {
		m.durable[p] = n
	}
	m.down = false
	m.crashAt = 0
}

// tornLocked draws how many of n unsynced bytes survive, in [0, n].
func (m *MemFS) tornLocked(n int) int {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n+1))
}

// step gates one mutating operation: counts it, trips the armed crash,
// and fails everything once the machine is down.
func (m *MemFS) step() error {
	if m.down {
		return ErrCrashed
	}
	m.ops++
	if m.crashAt > 0 && m.ops >= m.crashAt {
		m.down = true
		return ErrCrashed
	}
	return nil
}

// crashingNow reports whether the operation that just failed is the one
// that tripped the crash — its effects may partially reach the platter.
func (m *MemFS) crashingNow() bool { return m.down && m.crashAt > 0 && m.ops == m.crashAt }

func (m *MemFS) usedLocked() int64 {
	var total int64
	for _, n := range m.live {
		total += int64(len(n.content))
	}
	return total
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *MemFS) Create(name string) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	n := &memNode{}
	m.live[name] = n
	return &memFile{fs: m, node: n, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrCrashed
	}
	n, ok := m.live[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return &memFile{fs: m, node: n, name: name, readonly: true}, nil
}

func (m *MemFS) OpenRW(name string) (File, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrCrashed
	}
	n, ok := m.live[name]
	if !ok {
		if err := m.step(); err != nil { // creating mutates the namespace
			return nil, err
		}
		n = &memNode{}
		m.live[name] = n
	}
	return &memFile{fs: m, node: n, name: name}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	n, ok := m.live[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(m.live, oldname)
	m.live[newname] = n
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	if _, ok := m.live[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.live, name)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	dir = path.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrCrashed
	}
	var names []string
	for p := range m.live {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat reports a name's size and kind. It is not part of FS: the
// persistence layer never stats, tests use it to inspect the disk.
func (m *MemFS) Stat(name string) (Info, error) {
	name = path.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return Info{}, ErrCrashed
	}
	if n, ok := m.live[name]; ok {
		return Info{Size: int64(len(n.content))}, nil
	}
	if m.dirs[name] {
		return Info{IsDir: true}, nil
	}
	for p := range m.live {
		if path.Dir(p) == name {
			return Info{IsDir: true}, nil
		}
	}
	return Info{}, notExist("stat", name)
}

// MkdirAll records dir and its parents. Directory creation is treated as
// immediately durable — a simplification (journaling filesystems order
// mkdir cheaply) that keeps the model focused on the file and rename
// windows that actually bite. Like os.MkdirAll, it fails with ENOTDIR when
// dir or one of its parents is a regular file.
func (m *MemFS) MkdirAll(dir string) error {
	dir = path.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	for d := dir; d != "." && d != "/"; d = path.Dir(d) {
		if _, ok := m.live[d]; ok {
			return &fs.PathError{Op: "mkdir", Path: d, Err: syscall.ENOTDIR}
		}
	}
	for d := dir; d != "." && d != "/"; d = path.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// SyncDir commits dir's live entries to the durable namespace: files
// created or renamed in become crash-survivable (with whatever content
// they have durably synced), files removed or renamed away stop
// reappearing after a crash.
func (m *MemFS) SyncDir(dir string) error {
	dir = path.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	if err := faultinjectVisitSync(); err != nil {
		return err
	}
	if m.failSyncs > 0 {
		m.failSyncs--
		return ErrInjectedSyncFailure
	}
	for p, n := range m.live {
		if path.Dir(p) == dir {
			m.durable[p] = n
		}
	}
	for p := range m.durable {
		if path.Dir(p) == dir {
			if _, ok := m.live[p]; !ok {
				delete(m.durable, p)
			}
		}
	}
	return nil
}

// memFile is one open handle: a node pointer plus a position.
type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	pos      int64
	readonly bool
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if m.down {
		return 0, ErrCrashed
	}
	if f.pos >= int64(len(f.node.content)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.content[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.readonly {
		return 0, fmt.Errorf("vfs: write to read-only handle %s", f.name)
	}
	if err := m.step(); err != nil {
		if m.crashingNow() {
			// The in-flight write may still reach the platter; apply it to
			// live content so Crash() can tear it.
			f.writeLocked(p)
		}
		return 0, err
	}
	n := len(p)
	var werr error
	if m.capBytes > 0 {
		grow := f.pos + int64(len(p)) - int64(len(f.node.content))
		if grow > 0 {
			if avail := m.capBytes - m.usedLocked(); grow > avail {
				short := int64(n) - (grow - avail)
				if short < 0 {
					short = 0
				}
				n = int(short)
				werr = ErrNoSpace
			}
		}
	}
	f.writeLocked(p[:n])
	if werr != nil {
		return n, werr
	}
	return n, nil
}

// writeLocked applies bytes at the handle position, extending the file.
func (f *memFile) writeLocked(p []byte) {
	end := f.pos + int64(len(p))
	if end > int64(len(f.node.content)) {
		grown := make([]byte, end)
		copy(grown, f.node.content)
		f.node.content = grown
	}
	copy(f.node.content[f.pos:], p)
	f.pos = end
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = int64(len(f.node.content)) + offset
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	if f.pos < 0 {
		f.pos = 0
	}
	return f.pos, nil
}

func (f *memFile) Sync() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	if err := m.step(); err != nil {
		return err
	}
	if err := faultinjectVisitSync(); err != nil {
		return err
	}
	if m.failSyncs > 0 {
		m.failSyncs--
		return ErrInjectedSyncFailure
	}
	f.node.durable = append([]byte(nil), f.node.content...)
	f.node.hasDurable = true
	return nil
}

func (f *memFile) Truncate(size int64) error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	if f.readonly {
		return fmt.Errorf("vfs: truncate on read-only handle %s", f.name)
	}
	if err := m.step(); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("vfs: negative truncate %d", size)
	}
	if size <= int64(len(f.node.content)) {
		f.node.content = f.node.content[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, f.node.content)
		f.node.content = grown
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}
