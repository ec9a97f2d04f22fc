package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the base error surfaced by FaultFS-triggered failures.
// Tests assert on it with errors.Is.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps another FS and injects disk failures at configured points:
// a short write after N cumulative payload bytes, write errors, and fsync
// failures after N syncs. It drives the read-only-degradation and
// torn-file-recovery tests through real files — the log under test runs
// its production code path; only the syscalls lie.
//
// The zero value (wrapping some inner FS) injects nothing. Configure via
// the exported fields before handing it to Open, or call Arm* while the
// log is live. Counters are shared across all files opened through the
// FaultFS so "fail the 3rd fsync" means the 3rd fsync anywhere.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// write faults
	writeBudget  int64 // bytes allowed to be written before faulting (<0: unlimited)
	shortWrite   bool  // true: partial write then error; false: full error
	writeTripped bool
	// sync faults
	syncBudget  int64 // syncs allowed before faulting (<0: unlimited)
	syncTripped bool
	// syncHold, when set, blocks the next fsync (see holdNextSync).
	syncHold *syncHold

	writes int64
	syncs  int64
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{Inner: inner, writeBudget: -1, syncBudget: -1}
}

// ArmWriteFault makes writes fail once budget cumulative bytes have been
// written through this FS. If short is true the faulting write reports
// writing the bytes that fit in the budget before the error (a short
// write); otherwise it writes nothing of the faulting call.
func (f *FaultFS) ArmWriteFault(budget int64, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = f.writes + budget
	f.shortWrite = short
	f.writeTripped = false
}

// ArmSyncFault makes the (n+1)th fsync from now fail (n syncs still
// succeed).
func (f *FaultFS) ArmSyncFault(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncBudget = f.syncs + n
	f.syncTripped = false
}

// Disarm clears all armed faults.
func (f *FaultFS) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = -1
	f.syncBudget = -1
}

// Tripped reports whether any armed fault has fired.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeTripped || f.syncTripped
}

// admitWrite decides how much of an n-byte write to pass through.
func (f *FaultFS) admitWrite(n int) (allowed int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeBudget < 0 {
		f.writes += int64(n)
		return n, nil
	}
	room := f.writeBudget - f.writes
	if int64(n) <= room {
		f.writes += int64(n)
		return n, nil
	}
	f.writeTripped = true
	if f.shortWrite && room > 0 {
		f.writes += room
		return int(room), errInjectedShortWrite
	}
	return 0, errInjectedWrite
}

func (f *FaultFS) admitSync() error {
	f.mu.Lock()
	if f.syncBudget >= 0 && f.syncs >= f.syncBudget {
		f.syncTripped = true
		f.mu.Unlock()
		return errInjectedSync
	}
	f.syncs++
	h := f.syncHold
	f.syncHold = nil
	f.mu.Unlock()
	if h != nil {
		close(h.entered)
		<-h.release
	}
	return nil
}

type syncHold struct{ entered, release chan struct{} }

// holdNextSync makes the next fsync (file or directory) through this FS
// block before it reaches the disk until release is called; entered is
// closed once that fsync is waiting. The group-commit tests use it to keep
// a write+fsync in flight for exactly as long as they need.
func (f *FaultFS) holdNextSync() (entered <-chan struct{}, release func()) {
	h := &syncHold{entered: make(chan struct{}), release: make(chan struct{})}
	f.mu.Lock()
	f.syncHold = h
	f.mu.Unlock()
	var once sync.Once
	return h.entered, func() { once.Do(func() { close(h.release) }) }
}

var (
	errInjectedWrite      = errors.Join(ErrInjected, errors.New("write failure"))
	errInjectedShortWrite = errors.Join(ErrInjected, errors.New("short write"))
	errInjectedSync       = errors.Join(ErrInjected, errors.New("fsync failure"))
)

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error { return f.Inner.MkdirAll(dir) }

// Create implements FS.
func (f *FaultFS) Create(path string) (File, error) {
	inner, err := f.Inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(path string) (File, error) {
	inner, err := f.Inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open implements FS. Reads are never faulted: the harness targets the
// write path.
func (f *FaultFS) Open(path string) (File, error) { return f.Inner.Open(path) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.Inner.ReadDir(dir) }

// Stat implements FS.
func (f *FaultFS) Stat(path string) (int64, error) { return f.Inner.Stat(path) }

// Truncate implements FS.
func (f *FaultFS) Truncate(path string, size int64) error { return f.Inner.Truncate(path, size) }

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error { return f.Inner.Rename(oldpath, newpath) }

// Remove implements FS.
func (f *FaultFS) Remove(path string) error { return f.Inner.Remove(path) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if err := f.admitSync(); err != nil {
		return err
	}
	return f.Inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (w *faultFile) Read(p []byte) (int, error) { return w.inner.Read(p) }

func (w *faultFile) Write(p []byte) (int, error) {
	allowed, ferr := w.fs.admitWrite(len(p))
	if allowed > 0 {
		n, err := w.inner.Write(p[:allowed])
		if err != nil {
			return n, err
		}
		if ferr != nil {
			return n, ferr
		}
		return n, nil
	}
	if ferr != nil {
		return 0, ferr
	}
	return w.inner.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.admitSync(); err != nil {
		return err
	}
	return w.inner.Sync()
}

func (w *faultFile) Close() error { return w.inner.Close() }
