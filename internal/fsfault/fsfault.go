// Package fsfault is an injectable filesystem seam for the storage
// engine: the FS interface covers exactly the operations the store
// performs (open/create, write, fsync, rename, remove, truncate,
// directory listing), OS implements it over the real filesystem, and
// Faulty wraps any FS with a programmable fault plan — fail the Nth
// fsync, short-write then ENOSPC, refuse an open — so the fail-stop and
// recovery contracts are exercised against real error returns instead of
// only against post-hoc file truncation. Fault plans are deterministic:
// each rule counts its own matching operations, so "the 3rd fsync of a
// wal file fails" means the same thing on every run.
package fsfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
)

// File is the open-file surface the store needs: sequential writes
// (WAL append, checkpoint temp file), positional reads (log tailing),
// fsync, and close.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the filesystem surface the store needs. All paths are
// caller-chosen; implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens a file for appending/writing (WAL generations).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only (tailing, directory fsync).
	Open(name string) (File, error)
	// CreateTemp creates a temporary file (checkpoint staging).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error) { return os.Open(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

// Op names one filesystem operation class a fault rule can match.
type Op uint8

const (
	OpOpen Op = iota // OpenFile, Open and CreateTemp
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpRead // ReadFile and File.ReadAt
	numOps
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// ErrInjected is the base cause of every injected failure whose rule
// does not carry its own error. errors.Is(err, ErrInjected) identifies
// an injected fault regardless of wrapping.
var ErrInjected = errors.New("fsfault: injected fault")

// ENOSPC is a realistic disk-full error for fault rules.
var ENOSPC error = syscall.ENOSPC

// Rule is one entry of a fault plan. A rule matches an operation when
// the Op equals and the path contains PathContains (empty matches any
// path). Each rule keeps its own match counter; the fault fires on the
// Nth match (1-based; 0 behaves as 1) and, when Sticky, on every match
// after it — a sticky rule models a device that stays broken, the
// default models a transient error.
type Rule struct {
	Op           Op
	PathContains string
	Nth          int
	// Err is the injected error; nil injects ErrInjected.
	Err error
	// ShortBytes makes a matched write a short write: the first
	// ShortBytes bytes reach the file, then the error returns — the torn
	// frame an out-of-space device leaves behind. Only meaningful for
	// OpWrite.
	ShortBytes int
	// Sticky keeps the rule firing on every match after the Nth.
	Sticky bool

	mu    sync.Mutex
	count int
}

// fire reports whether this match triggers the fault.
func (r *Rule) fire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	nth := r.Nth
	if nth <= 0 {
		nth = 1
	}
	if r.Sticky {
		return r.count >= nth
	}
	return r.count == nth
}

func (r *Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// Faulty wraps an inner FS with a fault plan. Rules are consulted in
// order; the first firing rule injects its error. Operations that no
// rule fires on pass through unchanged. Counters and the op log are
// safe for concurrent use.
type Faulty struct {
	inner FS

	mu    sync.Mutex
	rules []*Rule
	ops   map[Op]int
}

// New returns a Faulty over inner (OS when nil) with the given plan.
func New(inner FS, rules ...*Rule) *Faulty {
	if inner == nil {
		inner = OS
	}
	return &Faulty{inner: inner, rules: rules, ops: make(map[Op]int)}
}

// Clear removes every rule; the filesystem heals.
func (f *Faulty) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// OpCount returns how many operations of class op have been issued
// through this FS (fired or not).
func (f *Faulty) OpCount(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// check counts the operation and returns the rule that fires on it, if
// any.
func (f *Faulty) check(op Op, path string) *Rule {
	f.mu.Lock()
	f.ops[op]++
	rules := f.rules
	f.mu.Unlock()
	for _, r := range rules {
		if r.Op != op {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		if r.fire() {
			return r
		}
	}
	return nil
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if r := f.check(OpOpen, name); r != nil {
		return nil, fmt.Errorf("fsfault: open %s: %w", name, r.err())
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f, name: name}, nil
}

func (f *Faulty) Open(name string) (File, error) {
	if r := f.check(OpOpen, name); r != nil {
		return nil, fmt.Errorf("fsfault: open %s: %w", name, r.err())
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f, name: name}, nil
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if r := f.check(OpOpen, dir+"/"+pattern); r != nil {
		return nil, fmt.Errorf("fsfault: create temp in %s: %w", dir, r.err())
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f, name: inner.Name()}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if r := f.check(OpRename, newpath); r != nil {
		return fmt.Errorf("fsfault: rename to %s: %w", newpath, r.err())
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if r := f.check(OpRemove, name); r != nil {
		return fmt.Errorf("fsfault: remove %s: %w", name, r.err())
	}
	return f.inner.Remove(name)
}

func (f *Faulty) Truncate(name string, size int64) error {
	if r := f.check(OpTruncate, name); r != nil {
		return fmt.Errorf("fsfault: truncate %s: %w", name, r.err())
	}
	return f.inner.Truncate(name, size)
}

func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if r := f.check(OpRead, name); r != nil {
		return nil, fmt.Errorf("fsfault: read %s: %w", name, r.err())
	}
	return f.inner.ReadFile(name)
}

func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) {
	return f.inner.ReadDir(name)
}

func (f *Faulty) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// faultyFile applies write/sync/read rules to an open file.
type faultyFile struct {
	File
	fs   *Faulty
	name string
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	if r := ff.fs.check(OpWrite, ff.name); r != nil {
		n := r.ShortBytes
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			// The short prefix really lands on the device — exactly the
			// torn frame a full disk leaves.
			if wn, werr := ff.File.Write(p[:n]); werr != nil {
				return wn, werr
			}
		}
		return n, fmt.Errorf("fsfault: write %s: %w", ff.name, r.err())
	}
	return ff.File.Write(p)
}

func (ff *faultyFile) Sync() error {
	if r := ff.fs.check(OpSync, ff.name); r != nil {
		return fmt.Errorf("fsfault: fsync %s: %w", ff.name, r.err())
	}
	return ff.File.Sync()
}

func (ff *faultyFile) ReadAt(p []byte, off int64) (int, error) {
	if r := ff.fs.check(OpRead, ff.name); r != nil {
		return 0, fmt.Errorf("fsfault: read %s: %w", ff.name, r.err())
	}
	return ff.File.ReadAt(p, off)
}
