package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// collect streams [from, ∞) into a map and returns (records, next).
func collect(t *testing.T, l *Log, from uint64) (map[uint64]string, uint64) {
	t.Helper()
	got := map[uint64]string{}
	next, err := l.StreamFrom(from, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamFrom(%d): %v", from, err)
	}
	return got, next
}

// TestStreamFromAfterAppends proves StreamFrom works where Replay does
// not: on a handle that has already appended, from any starting seq.
func TestStreamFromAfterAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{1, 2, 17, n, n + 1} {
		got, next := collect(t, l, from)
		if next != n+1 {
			t.Fatalf("StreamFrom(%d) next = %d, want %d", from, next, n+1)
		}
		want := 0
		if from <= n {
			want = int(n - from + 1)
		}
		if len(got) != want {
			t.Fatalf("StreamFrom(%d) returned %d records, want %d", from, len(got), want)
		}
		for seq := from; seq <= n; seq++ {
			if got[seq] != fmt.Sprintf("record-%d", seq) {
				t.Fatalf("record %d = %q", seq, got[seq])
			}
		}
	}
	if oldest := l.OldestSeq(); oldest != 1 {
		t.Fatalf("OldestSeq = %d, want 1", oldest)
	}
}

// TestStreamFromCompacted: a suffix request below the oldest retained
// segment is ErrCompacted (the caller must re-seed from a checkpoint),
// both after TruncateBefore and after SkipTo on an empty log.
func TestStreamFromCompacted(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestSeq()
	if oldest <= 1 || oldest > 20 {
		t.Fatalf("OldestSeq after TruncateBefore(20) = %d", oldest)
	}
	if _, err := l.StreamFrom(oldest-1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamFrom below oldest = %v, want ErrCompacted", err)
	}
	got, next := collect(t, l, oldest)
	if uint64(len(got)) != next-oldest {
		t.Fatalf("streamed %d records from %d, next %d", len(got), oldest, next)
	}

	// SkipTo on a fresh log: everything below the skip point reads as
	// compacted (a checkpoint covers it), nothing is streamable yet.
	l2, err := Open(t.TempDir(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.SkipTo(101); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.StreamFrom(51, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamFrom(51) after SkipTo(101) = %v, want ErrCompacted", err)
	}
	if got, next := collect(t, l2, 101); len(got) != 0 || next != 101 {
		t.Fatalf("StreamFrom(101) = %d records, next %d", len(got), next)
	}
}

// TestStreamFromConcurrentAppends hammers StreamFrom while an appender
// runs: every stream must observe a dense prefix [from, next) with the
// exact payload bytes — no torn frames, no gaps, no reordering.
func TestStreamFromConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 20; r++ {
		var last uint64
		next, err := l.StreamFrom(1, func(seq uint64, payload []byte) error {
			if seq != last+1 {
				return fmt.Errorf("gap: got seq %d after %d", seq, last)
			}
			if string(payload) != fmt.Sprintf("payload-%d", seq) {
				return fmt.Errorf("record %d: payload %q", seq, payload)
			}
			last = seq
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != next-1 {
			t.Fatalf("streamed through %d but next is %d", last, next)
		}
	}
	wg.Wait()
	if got, next := collect(t, l, 1); len(got) != total || next != total+1 {
		t.Fatalf("final stream: %d records, next %d", len(got), next)
	}
}

// TestStreamFromSkipsWithoutAllocating: records below from are verified in
// one reused buffer, so streaming the last record of an N-record segment
// makes the same number of allocations at any N.
func TestStreamFromSkipsWithoutAllocating(t *testing.T) {
	allocs := func(n int) float64 {
		l, err := Open(t.TempDir(), Options{SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		payload := make([]byte, 64)
		for i := 0; i < n; i++ {
			if _, err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if segs := len(l.Segments()); segs != 1 {
			t.Fatalf("%d records filled %d segments, want 1", n, segs)
		}
		shipped := 0
		a := testing.AllocsPerRun(20, func() {
			if _, err := l.StreamFrom(uint64(n), func(uint64, []byte) error {
				shipped++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		if shipped != 21 { // AllocsPerRun's warm-up run plus 20
			t.Fatalf("streamed %d records over 21 runs, want 21", shipped)
		}
		return a
	}
	if small, large := allocs(16), allocs(512); large != small {
		t.Fatalf("StreamFrom of the last record allocates %v times after 16 records and %v after 512", small, large)
	}
}
