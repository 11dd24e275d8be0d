package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hdcirc/internal/vfs"
)

// appendN appends n payloads ("payload/<seq>") and returns them by seq.
func appendN(t *testing.T, l *Log, n int) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		want := l.NextSeq()
		payload := []byte(fmt.Sprintf("payload/%d", want))
		seq, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("append assigned seq %d, want %d", seq, want)
		}
		out[seq] = payload
	}
	return out
}

// replayAll collects every record the log still holds.
func replayAll(t *testing.T, l *Log) map[uint64][]byte {
	t.Helper()
	got := make(map[uint64][]byte)
	prev := uint64(0)
	if _, err := l.StreamFrom(l.OldestSeq(), func(seq uint64, payload []byte) error {
		if seq <= prev {
			t.Fatalf("replay out of order: %d after %d", seq, prev)
		}
		prev = seq
		got[seq] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 26 {
		t.Fatalf("reopened NextSeq = %d, want 26", l2.NextSeq())
	}
	got := replayAll(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for seq, p := range want {
		if !bytes.Equal(got[seq], p) {
			t.Fatalf("record %d: %q, want %q", seq, got[seq], p)
		}
	}
}

func TestReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128}) // force several segments
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var seqs []uint64
	if _, err := l2.StreamFrom(15, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 6 || seqs[0] != 15 || seqs[5] != 20 {
		t.Fatalf("StreamFrom(15) visited %v", seqs)
	}
}

func TestRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 30)
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	for _, s := range l.Segments() {
		first, err := seqFromName(filepath.Base(s))
		if err != nil {
			t.Fatal(err)
		}
		// A surviving segment must contain at least one record >= 20 — or be
		// the tail.
		if s != segs[len(segs)-1] {
			fi, err := os.Stat(s)
			if err != nil {
				t.Fatalf("kept segment vanished: %v", err)
			}
			_ = fi
		}
		_ = first
	}
	// Everything from 20 on must still replay after reopen.
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	for seq := uint64(20); seq <= 30; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost by TruncateBefore", seq)
		}
	}
	if l2.NextSeq() != 31 {
		t.Fatalf("NextSeq after compaction = %d, want 31", l2.NextSeq())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, cut := range []int{1, 5, recHeaderLen, recHeaderLen + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 10)
			l.Close()

			segs, err := segmentNames(vfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segs[len(segs)-1])
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			got := replayAll(t, l2)
			if len(got) != 9 {
				t.Fatalf("after torn tail: %d records, want 9", len(got))
			}
			if l2.NextSeq() != 10 {
				t.Fatalf("NextSeq = %d, want 10 (reusing the torn slot)", l2.NextSeq())
			}
			// The log must accept new appends at the reclaimed sequence.
			if seq, err := l2.Append([]byte("replacement")); err != nil || seq != 10 {
				t.Fatalf("append after torn recovery: seq %d, err %v", seq, err)
			}
		})
	}
}

func TestCorruptMiddleSegmentSetsAsideSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 30)
	l.Close()

	segs, err := segmentNames(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the middle segment.
	mid := filepath.Join(dir, segs[len(segs)/2])
	raw, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(mid, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	// Replay must be a gap-free prefix ending before the corrupt record.
	for seq := uint64(1); seq <= uint64(len(got)); seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("replayed set has a gap at %d", seq)
		}
	}
	if len(got) >= 30 {
		t.Fatalf("corruption not detected: %d records replayed", len(got))
	}
	// The suffix segments must be preserved as *.corrupt, not deleted.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	aside := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".corrupt") {
			aside++
		}
	}
	if aside == 0 {
		t.Error("corrupt suffix segments were not set aside")
	}
}

// statFailFS is the real filesystem with a failing Stat.
type statFailFS struct{ vfs.OS }

func (statFailFS) Stat(path string) (os.FileInfo, error) {
	return nil, &os.PathError{Op: "stat", Path: path, Err: syscall.EIO}
}

// TestSetAsideStatFaultFailsOpen: recovery that must set a segment aside
// but cannot Stat the names it would move it to returns the fault instead
// of probing names forever.
func TestSetAsideStatFaultFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("not a segment header"), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		l, err := Open(dir, Options{FS: statFailFS{}})
		if err == nil {
			l.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("Open with a failing Stat = %v, want EIO", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open still running after 5s: setting the segment aside loops on the failing Stat")
	}
}

func TestSyncPolicies(t *testing.T) {
	// Smoke: both batched and disabled fsync must append and replay fine
	// (the durability difference only shows on machine crashes).
	for _, every := range []int{1, 8, -1} {
		dir := t.TempDir()
		l, err := Open(dir, Options{SyncEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 12)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, l2); len(got) != 12 {
			t.Fatalf("SyncEvery=%d: %d records, want 12", every, len(got))
		}
		l2.Close()
	}
}

func TestSkipTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SkipTo(100); err != nil {
		t.Fatal(err)
	}
	if err := l.SkipTo(50); err == nil {
		t.Error("SkipTo rewind accepted")
	}
	seq, err := l.Append([]byte("x"))
	if err != nil || seq != 100 {
		t.Fatalf("append after SkipTo: seq %d, err %v", seq, err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextSeq() != 101 {
		t.Fatalf("NextSeq after SkipTo reopen = %d, want 101", l2.NextSeq())
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversize payload accepted")
	}
}

func TestAppendAfterCloseRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Error("append after Close accepted")
	}
}
