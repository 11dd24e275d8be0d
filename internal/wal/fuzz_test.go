package wal

// FuzzWALRecover is the crash-safety harness the nightly CI job runs for
// minutes at a time: build a known-good log, then mangle it — truncate at
// an arbitrary byte, flip an arbitrary byte, or both — and require that
// recovery (a) never panics, (b) never replays a partial or altered
// record, and (c) replays a gap-free prefix of what was appended.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hdcirc/internal/vfs"
)

func FuzzWALRecover(f *testing.F) {
	f.Add(uint8(3), uint16(40), uint16(0), uint8(0), false)
	f.Add(uint8(10), uint16(17), uint16(100), uint8(0xff), true)
	f.Add(uint8(1), uint16(0), uint16(3), uint8(0x01), true)   // corrupt the header
	f.Add(uint8(20), uint16(9999), uint16(50), uint8(0), true) // truncate far past EOF is a no-op
	f.Fuzz(func(t *testing.T, nRecords uint8, cutAt uint16, flipAt uint16, flipBits uint8, alsoFlip bool) {
		n := int(nRecords)%24 + 1
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 96, SyncEvery: -1}) // several small segments
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64][]byte, n)
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%7)))
			seq, err := l.Append(payload)
			if err != nil {
				t.Fatal(err)
			}
			want[seq] = payload
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Mangle one of the segment files at fuzzed positions.
		names, err := segmentNames(vfs.OS{}, dir)
		if err != nil || len(names) == 0 {
			t.Fatal("no segments written")
		}
		victim := filepath.Join(dir, names[int(cutAt)%len(names)])
		raw, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if int(cutAt) < len(raw) {
			raw = raw[:cutAt]
		}
		if alsoFlip && len(raw) > 0 {
			raw[int(flipAt)%len(raw)] ^= flipBits
		}
		if err := os.WriteFile(victim, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Recovery must never panic and must yield a clean prefix.
		l2, err := Open(dir, Options{})
		if err != nil {
			// An unreadable log is a legal outcome of corruption; what is
			// not legal is a panic or a bad replay below.
			return
		}
		defer l2.Close()
		var prev uint64
		_, replayErr := l2.StreamFrom(l2.OldestSeq(), func(seq uint64, payload []byte) error {
			if seq != prev+1 {
				t.Fatalf("replay gap: %d after %d", seq, prev)
			}
			prev = seq
			orig, ok := want[seq]
			if !ok {
				t.Fatalf("replayed unknown record %d", seq)
			}
			if !bytes.Equal(payload, orig) {
				t.Fatalf("record %d altered: %q, want %q", seq, payload, orig)
			}
			return nil
		})
		if replayErr != nil {
			t.Fatalf("replay of recovered log failed: %v", replayErr)
		}
		// Appends must still work after any recovery.
		if _, err := l2.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
