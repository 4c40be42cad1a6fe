// The passthrough implementation: the real filesystem, plus the vfs.sync
// chaos site on every durability barrier so `make verify-chaos` can fail
// fsyncs on a live actd without a custom kernel.

package vfs

import (
	"os"
	"sort"

	"act/internal/faultinject"
)

// OS is the production FS: every call maps 1:1 onto the os package.
type OS struct{}

// faultinjectVisitSync is the shared durability-barrier chaos hook; both
// implementations call it so a registered vfs.sync fault hits MemFS tests
// and live-OS chaos storms identically.
func faultinjectVisitSync() error {
	return faultinject.VisitNoCtx(faultinject.SiteVFSSync)
}

type osFile struct{ *os.File }

// Sync visits the vfs.sync fault site, then fsyncs. An injected error
// stands in for the real thing — a full journal, a dying device — and
// must be handled identically.
func (f osFile) Sync() error {
	if err := faultinjectVisitSync(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) OpenRW(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OS) Remove(name string) error             { return os.Remove(name) }
func (OS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir fsyncs the directory itself, making its entries — creates,
// renames, removes — durable. Same chaos site as file syncs: to the
// caller a failed barrier is a failed barrier.
func (OS) SyncDir(dir string) error {
	if err := faultinjectVisitSync(); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
