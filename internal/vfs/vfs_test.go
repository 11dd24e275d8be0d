package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func writeThrough(t *testing.T, fs FS, path string, data []byte) (int, error) {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	return f.Write(data)
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := Default(nil)
	path := filepath.Join(dir, "a.bin")
	if _, err := writeThrough(t, fs, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := ReadFile(fs, path)
	if err != nil || string(raw) != "hello" {
		t.Fatalf("ReadFile = %q, %v", raw, err)
	}
	if err := fs.Rename(path, filepath.Join(dir, "b.bin")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(filepath.Join(dir, "b.bin"), 2); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat(filepath.Join(dir, "b.bin"))
	if err != nil || fi.Size() != 2 {
		t.Fatalf("Stat after truncate: %v, %v", fi, err)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadDir: %d entries, %v", len(entries), err)
	}
	if err := fs.Remove(filepath.Join(dir, "b.bin")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultByOpCountAndCount(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	// Third and fourth writes fail with ENOSPC, everything else succeeds.
	ffs.Arm(Fault{Op: OpWrite, Err: ErrNoSpace, After: 2, Count: 2})
	path := filepath.Join(dir, "w.bin")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 6; i++ {
		_, err := f.Write([]byte{byte(i)})
		wantFail := i == 2 || i == 3
		if wantFail != (err != nil) {
			t.Fatalf("write %d: err=%v, want failure=%v", i, err, wantFail)
		}
		if wantFail && !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d: error %v is not ENOSPC", i, err)
		}
	}
	if got := ffs.Fired(); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := ffs.Ops(OpWrite); got != 6 {
		t.Fatalf("Ops(write) = %d, want 6", got)
	}
}

func TestFaultByPathPattern(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.Arm(Fault{Op: OpSync, Path: ".seg", Err: ErrIO})
	seg, err := ffs.OpenFile(filepath.Join(dir, "wal-1.seg"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	other, err := ffs.OpenFile(filepath.Join(dir, "ckpt-1.hckp"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := seg.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("segment sync error %v, want EIO", err)
	}
	if err := other.Sync(); err != nil {
		t.Fatalf("non-matching sync failed: %v", err)
	}
}

func TestTornWritePersistsPrefixOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.Arm(Fault{Op: OpWrite, Err: ErrIO, KeepBytes: 3, Count: 1})
	path := filepath.Join(dir, "torn.bin")
	n, err := writeThrough(t, ffs, path, []byte("abcdefgh"))
	if n != 3 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write returned (%d, %v), want (3, EIO)", n, err)
	}
	raw, rerr := os.ReadFile(path)
	if rerr != nil || string(raw) != "abc" {
		t.Fatalf("on-disk bytes %q, want the 3-byte prefix", raw)
	}
	// Fault exhausted: the next write goes through whole.
	if _, err := writeThrough(t, ffs, path, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	if string(raw) != "abcXY" {
		t.Fatalf("after clear, bytes %q", raw)
	}
}

func TestFaultAtByteOffset(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	// Fail the write that spans byte 10 of the file.
	ffs.Arm(Fault{Op: OpWrite, Err: ErrNoSpace, AtOffset: 10})
	f, err := ffs.OpenFile(filepath.Join(dir, "off.bin"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 8)); err != nil { // [0,8): clean
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4)); !errors.Is(err, syscall.ENOSPC) { // [8,12) spans 10
		t.Fatalf("spanning write: %v, want ENOSPC", err)
	}
}

func TestSeededRandomFaultDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		dir := t.TempDir()
		ffs := NewFaultFS(nil)
		ffs.Seed(seed)
		ffs.Arm(Fault{Op: OpWrite, Err: ErrIO, Prob: 0.3})
		f, err := ffs.OpenFile(filepath.Join(dir, "p.bin"), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var failedAt []int
		for i := 0; i < 40; i++ {
			if _, err := f.Write([]byte{1}); err != nil {
				failedAt = append(failedAt, i)
			}
		}
		return failedAt
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("prob 0.3 over 40 writes fired %d times — not probabilistic", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestClearHealsTheDisk(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.Arm(Fault{Op: OpWrite, Err: ErrNoSpace})
	path := filepath.Join(dir, "heal.bin")
	if _, err := writeThrough(t, ffs, path, []byte("x")); err == nil {
		t.Fatal("armed fault did not fire")
	}
	ffs.Clear()
	if _, err := writeThrough(t, ffs, path, []byte("x")); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}
}

func TestDelayOnlyFaultIsFailSlow(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	ffs.Arm(Fault{Op: OpSync, Delay: 30 * time.Millisecond, Count: 1})
	f, err := ffs.OpenFile(filepath.Join(dir, "slow.bin"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("delay-only fault returned error: %v", err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("sync returned in %v, want the injected stall", took)
	}
}

func TestRenameAndSyncDirFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	path := filepath.Join(dir, "t.tmp")
	if _, err := writeThrough(t, ffs, path, []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(Fault{Op: OpRename, Err: ErrIO, Count: 1})
	ffs.Arm(Fault{Op: OpSyncDir, Err: ErrIO, Count: 1})
	if err := ffs.Rename(path, filepath.Join(dir, "t.bin")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename: %v, want EIO", err)
	}
	if err := ffs.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("syncdir: %v, want EIO", err)
	}
	// Both exhausted.
	if err := ffs.Rename(path, filepath.Join(dir, "t.bin")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestReadFault(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	path := filepath.Join(dir, "r.bin")
	if _, err := writeThrough(t, ffs, path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(Fault{Op: OpRead, Err: ErrIO, Count: 1})
	if _, err := ReadFile(ffs, path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted read: %v, want EIO", err)
	}
	raw, err := ReadFile(ffs, path)
	if err != nil || string(raw) != "payload" {
		t.Fatalf("read after exhaustion: %q, %v", raw, err)
	}
}

// TestWriteFileAtomicSyncDirFault: the directory fsync runs after the
// rename, so its failure is reported with the new file already in place
// and no temp file beside it.
func TestWriteFileAtomicSyncDirFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	ffs := NewFaultFS(nil)
	if err := WriteFileAtomic(ffs, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(Fault{Op: OpSyncDir, Err: ErrIO, Count: 1})
	if err := WriteFileAtomic(ffs, path, []byte("new")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WriteFileAtomic with a SyncDir fault = %v, want EIO", err)
	}
	raw, err := ReadFile(ffs, path)
	if err != nil || string(raw) != "new" {
		t.Fatalf("after the SyncDir fault: %q, %v; want the new file in place", raw, err)
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestSetAsideNeverOverwrites: each set-aside takes the first free name,
// so evidence from an earlier recovery survives, and a failed rename is
// reported.
func TestSetAsideNeverOverwrites(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	path := filepath.Join(dir, "seg")
	for _, content := range []string{"first", "second", "third"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := SetAside(ffs, path); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]string{".corrupt": "first", ".corrupt.1": "second", ".corrupt.2": "third"} {
		if raw, err := os.ReadFile(path + name); err != nil || string(raw) != want {
			t.Errorf("%s = %q, %v; want %q", name, raw, err, want)
		}
	}
	if err := os.WriteFile(path, []byte("fourth"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs.Arm(Fault{Op: OpRename, Err: ErrIO, Count: 1})
	if err := SetAside(ffs, path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("SetAside with a rename fault = %v, want EIO", err)
	}
}
