package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the mutating filesystem operations the durable layer performs,
// so crash and disk-full behaviour can be injected in tests (see FlakyFS).
// Reads that only serve queries (DiskTable row access) stay on the real
// filesystem: crash safety is a property of the write path.
//
// The contract every writer in this repository follows is that a path a
// reader can reach holds either nothing, the complete old version, or the
// complete new version — never a partial write. WriteFileAtomic gives that
// to a single file (write-to-temp → Sync → Close → Rename → SyncDir);
// WriteFileSync is the cheaper half for files nothing can see until a later
// atomic step publishes their directory.
type FS interface {
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// RemoveAll deletes a tree; absent paths are not an error.
	RemoveAll(path string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(path string) ([]os.DirEntry, error)
	// Stat describes a path.
	Stat(path string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(path string) error
}

// File is the writable handle an FS hands out.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error)             { return os.Create(path) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (osFS) Stat(path string) (os.FileInfo, error)        { return os.Stat(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileSync writes data to a new file at path and fsyncs it: Create →
// Write → Sync → Close, nothing else. The file's directory entry is not made
// durable and a crash mid-way leaves a partial file at path, so it is only
// for paths no reader can reach yet — files inside a directory that a later
// atomic step commits (a generation before CURRENT names it, or the temp
// file of WriteFileAtomic).
func WriteFileSync(fsys FS, path string, data []byte) (err error) {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // a second Close after a failed one is harmless
			err = fmt.Errorf("store: writing %s: %w", path, err)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes data to path with full crash safety: the bytes go to
// path+".tmp", are fsynced, and only then renamed over path, with the parent
// directory fsynced to make the rename durable. A crash at any step leaves
// either the old file or the new one at path, never a mixture.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := WriteFileSync(fsys, tmp, data); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}
