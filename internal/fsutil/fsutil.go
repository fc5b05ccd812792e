// Package fsutil provides crash-safe file output for the experiment
// commands. Every result file in this repository — reports, traces, JSON
// exports, checkpoints — is either complete or absent: writers stage their
// bytes in a temporary file in the destination directory, fsync it, and
// atomically rename it over the target. A crash (or an injected fault — see
// internal/faultinject) at any instant leaves either the old file or the
// new one at the destination path, never a torn hybrid, because rename(2)
// within one directory is atomic on POSIX systems.
package fsutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path with the durability and atomicity
// guarantees described in the package comment. It is the drop-in
// replacement for os.WriteFile at every result-writing site.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Close()
		return err
	}
	if err := a.f.Chmod(perm); err != nil {
		a.Close()
		return err
	}
	return a.Commit()
}

// AtomicFile is a streaming writer with transactional semantics: bytes go
// to a hidden temporary file next to the destination, Commit publishes them
// at the destination path in one atomic step, and Close without Commit
// discards them. The destination is never observable in a partial state.
type AtomicFile struct {
	f         *os.File
	path      string
	committed bool
}

// CreateAtomic starts an atomic write of path. The temporary file is
// created in path's directory (rename across filesystems is not atomic),
// with a name derived from the target so interrupted runs are easy to
// identify and clean up.
func CreateAtomic(path string) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer, appending to the staged temporary file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	if a.committed {
		return 0, fmt.Errorf("fsutil: write to %s after Commit", a.path)
	}
	return a.f.Write(p)
}

// Name returns the destination path the file will be committed to.
func (a *AtomicFile) Name() string { return a.path }

// StagedName returns the temporary file the bytes are staged in until
// Commit, so a reader can follow them while they are written.
func (a *AtomicFile) StagedName() string { return a.f.Name() }

// Commit makes the staged bytes the content of the destination path:
// fsync the temporary file (so the rename never publishes an empty or
// partial file after a power failure), close it, and rename it over the
// target. After Commit the AtomicFile is spent; Close becomes a no-op.
func (a *AtomicFile) Commit() error {
	if a.committed {
		return nil
	}
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.Close()
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return err
	}
	a.committed = true
	// Best effort: make the rename itself durable. A failure here means
	// the new file exists but the directory entry may revert to the old
	// one after a crash — both are complete files, so the atomicity
	// contract still holds.
	if dirf, err := os.Open(filepath.Dir(a.path)); err == nil {
		dirf.Sync()
		dirf.Close()
	}
	return nil
}

// Close aborts an uncommitted write, removing the temporary file; after
// Commit it is a no-op. It is safe (and intended) to defer Close
// unconditionally next to a conditional Commit.
func (a *AtomicFile) Close() error {
	if a.committed {
		return nil
	}
	a.committed = true
	err := a.f.Close()
	if rmErr := os.Remove(a.f.Name()); err == nil {
		err = rmErr
	}
	return err
}

var _ io.WriteCloser = (*AtomicFile)(nil)
