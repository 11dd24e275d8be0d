// Package vfs is the thin filesystem seam the durability layer sits on:
// a small interface covering exactly the operations the write-ahead log
// (internal/wal), the checkpoint writer (internal/serve) and the cluster
// manifest (internal/cluster) perform, a passthrough OS implementation,
// and a deterministic fault-injecting implementation (FaultFS) that can
// return ENOSPC/EIO, cut writes short, tear them (persist only a prefix),
// or stall them — by operation count, by path pattern, by byte offset, or
// seeded-random.
//
// The package also owns the two file protocols those layers share, so
// each is written once: WriteFileAtomic publishes a whole file (temp
// file, fsync, rename, directory fsync) and SetAside moves a damaged file
// out of the way without overwriting earlier evidence.
//
// The seam exists so storage faults become testable: crash-consistency
// results (ALICE-style torn/partial-write schedules) and fail-slow/
// fail-partial storage studies all show that the faults that wreck
// durability layers in production are precisely the ones a unit test on a
// healthy filesystem never exercises. Production code paths take an FS
// value (nil selects OS); chaos tests hand the same code a FaultFS and
// assert the degradation contract instead of hoping.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability layer writes through.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file's data (and metadata) to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem operation set the durability layer needs. All paths
// are interpreted exactly as the os package would.
type FS interface {
	// OpenFile opens path with the given flag and permissions (os.O_*).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// ReadDir lists the directory, sorted by name.
	ReadDir(path string) ([]os.DirEntry, error)
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Rename atomically moves oldPath to newPath.
	Rename(oldPath, newPath string) error
	// Remove deletes the named file.
	Remove(path string) error
	// Truncate resizes the named file.
	Truncate(path string, size int64) error
	// Stat describes the named file.
	Stat(path string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and creations within it
	// durable.
	SyncDir(path string) error
}

// OS is the passthrough implementation over the real filesystem. The zero
// value is ready to use.
type OS struct{}

// OpenFile opens path via os.OpenFile.
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// Open opens path read-only via os.Open.
func (OS) Open(path string) (File, error) { return os.Open(path) }

// ReadDir lists the directory via os.ReadDir.
func (OS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }

// MkdirAll creates the directory tree via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Rename moves oldPath to newPath via os.Rename.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Remove deletes the file via os.Remove.
func (OS) Remove(path string) error { return os.Remove(path) }

// Truncate resizes the file via os.Truncate.
func (OS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

// Stat describes the file via os.Stat.
func (OS) Stat(path string) (os.FileInfo, error) { return os.Stat(path) }

// SyncDir opens the directory and fsyncs it.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("vfs: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("vfs: syncing directory: %w", err)
	}
	return nil
}

// Default returns fs, or the passthrough OS filesystem when fs is nil —
// the resolution every FS-taking config performs.
func Default(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}

// ReadFile reads the whole named file through fs (so injected read faults
// apply), mirroring os.ReadFile.
func ReadFile(fs FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// TempSuffix names the file WriteFileAtomic stages data in: path+TempSuffix.
// Only the rename publishes it, so a leftover one holds nothing to recover.
const TempSuffix = ".tmp"

// WriteFileAtomic publishes data at path so a crash leaves either the old
// file or the new one, never a mix: it writes path+TempSuffix, fsyncs and
// closes it, renames it over path, then fsyncs the directory, without
// which a machine crash can resurrect the pre-rename state. A failure
// before the rename removes the temp file and leaves path as it was; a
// directory-fsync failure is returned with the new file already in place.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + TempSuffix
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("vfs: creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		// Best effort: the failure above is the one to report, and the
		// temp file is never read.
		_ = fs.Remove(tmp)
		return fmt.Errorf("vfs: publishing %s: %w", path, err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("vfs: syncing directory of %s: %w", path, err)
	}
	return nil
}

// SetAside renames a damaged file out of its reader's way, keeping the
// bytes for forensics: to path+".corrupt", or to the first free
// path+".corrupt.N" when earlier recoveries already left evidence there.
// It never overwrites an existing file, so a Stat failure other than
// not-exist is returned rather than guessed past.
func SetAside(fs FS, path string) error {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		_, err := fs.Stat(dst)
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return fmt.Errorf("vfs: setting aside %s: %w", path, err)
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := fs.Rename(path, dst); err != nil {
		return fmt.Errorf("vfs: setting aside %s: %w", path, err)
	}
	return nil
}
