package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hdcirc/internal/vfs"
)

// memFS is an in-memory vfs.FS: the durable primaries' write-ahead logs and
// checkpoints live here for the length of one repetition. It stands in for a
// tmpfs mount, which keeps fsync off the host's virtual disk (whose fsync
// latency does not repeat from run to run) while the benchmark still reads
// and writes nothing outside its checkout. Sync is a no-op, as on tmpfs.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.RWMutex
	data []byte
	mod  time.Time
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memNode{}, dirs: map[string]bool{"/": true, ".": true}}
}

func pathErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

func (m *memFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(path)] {
		return nil, pathErr("open", path, fs.ErrNotExist)
	}
	if m.dirs[path] {
		return nil, pathErr("open", path, fs.ErrInvalid)
	}
	n, ok := m.files[path]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", path, fs.ErrExist)
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", path, fs.ErrNotExist)
	case !ok:
		n = &memNode{mod: time.Now()}
		m.files[path] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.mu.Lock()
		n.data = nil
		n.mu.Unlock()
	}
	return &memFile{node: n, name: path, flag: flag}, nil
}

func (m *memFS) Open(path string) (vfs.File, error) { return m.OpenFile(path, os.O_RDONLY, 0) }

func (m *memFS) ReadDir(path string) ([]os.DirEntry, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[path] {
		return nil, pathErr("readdir", path, fs.ErrNotExist)
	}
	var out []os.DirEntry
	for p, n := range m.files {
		if filepath.Dir(p) == path {
			out = append(out, fs.FileInfoToDirEntry(n.info(filepath.Base(p))))
		}
	}
	for p := range m.dirs {
		if p != path && filepath.Dir(p) == path {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), dir: true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) MkdirAll(path string, perm os.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; !m.dirs[p]; p = filepath.Dir(p) {
		if _, isFile := m.files[p]; isFile {
			return pathErr("mkdir", p, fs.ErrExist)
		}
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldPath]
	if !ok {
		return pathErr("rename", oldPath, fs.ErrNotExist)
	}
	if !m.dirs[filepath.Dir(newPath)] {
		return pathErr("rename", newPath, fs.ErrNotExist)
	}
	delete(m.files, oldPath)
	m.files[newPath] = n
	return nil
}

func (m *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		delete(m.files, path)
		return nil
	}
	if m.dirs[path] {
		for p := range m.files {
			if strings.HasPrefix(p, path+string(filepath.Separator)) {
				return pathErr("remove", path, fs.ErrExist)
			}
		}
		delete(m.dirs, path)
		return nil
	}
	return pathErr("remove", path, fs.ErrNotExist)
}

func (m *memFS) Truncate(path string, size int64) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	n, ok := m.files[path]
	m.mu.Unlock()
	if !ok {
		return pathErr("truncate", path, fs.ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < int64(len(n.data)) {
		n.data = n.data[:size]
	} else {
		n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
	}
	return nil
}

func (m *memFS) Stat(path string) (os.FileInfo, error) {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.files[path]; ok {
		return n.info(filepath.Base(path)), nil
	}
	if m.dirs[path] {
		return memInfo{name: filepath.Base(path), dir: true}, nil
	}
	return nil, pathErr("stat", path, fs.ErrNotExist)
}

func (m *memFS) SyncDir(path string) error {
	if _, err := m.Stat(path); err != nil {
		return err
	}
	return nil
}

func (n *memNode) info(name string) memInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return memInfo{name: name, size: int64(len(n.data)), mod: n.mod}
}

type memInfo struct {
	name string
	size int64
	mod  time.Time
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// memFile is an open handle with its own offset. Reads see every write
// made through any handle of the same file, as on a real filesystem.
type memFile struct {
	node   *memNode
	name   string
	flag   int
	off    int64
	closed bool
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, pathErr("read", f.name, fs.ErrClosed)
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, pathErr("write", f.name, fs.ErrClosed)
	}
	if f.flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return 0, pathErr("write", f.name, fs.ErrPermission)
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.flag&os.O_APPEND != 0 {
		f.off = int64(len(f.node.data))
	}
	if size := int64(len(f.node.data)); f.off > size {
		f.node.data = append(f.node.data, make([]byte, f.off-size)...)
	}
	if f.off+int64(len(p)) > int64(len(f.node.data)) {
		f.node.data = append(f.node.data[:f.off], p...)
	} else {
		copy(f.node.data[f.off:], p)
	}
	f.off += int64(len(p))
	f.node.mod = time.Now()
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.node.mu.RLock()
	size := int64(len(f.node.data))
	f.node.mu.RUnlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += size
	default:
		return 0, pathErr("seek", f.name, fs.ErrInvalid)
	}
	if offset < 0 {
		return 0, pathErr("seek", f.name, fs.ErrInvalid)
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Close() error {
	if f.closed {
		return pathErr("close", f.name, fs.ErrClosed)
	}
	f.closed = true
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Name() string { return f.name }
