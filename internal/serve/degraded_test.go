package serve

// Degraded read-only mode: a sticky WAL fault must stop the write plane
// while reads keep serving the published snapshot, and Recover (manual or
// via the auto-retry probe) must return the server to healthy without
// losing an acknowledged write — or refuse, loudly, when the log can no
// longer prove the acknowledged prefix.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
	"hdcirc/internal/vfs"
)

// faultedConfig is durableConfig over an injectable filesystem.
func faultedConfig(t *testing.T) (Config, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(nil)
	cfg := durableConfig(t.TempDir())
	cfg.WAL.FS = ffs
	return cfg, ffs
}

func TestDegradedReadOnlyThenRecover(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	s := mustOpen(t, cfg)
	defer s.Close()

	src := rng.New(99)
	var acked []Batch
	for i := 0; i < 6; i++ {
		b := randomBatch(cfg, src)
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, b)
	}
	preVersion := s.Snapshot().Version()
	preBytes := snapshotBytes(t, s.Snapshot())

	// The disk fills up mid-append.
	ffs.Arm(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Err: vfs.ErrNoSpace})
	if _, err := s.ApplyBatch(randomBatch(cfg, src)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: %v, want ENOSPC", err)
	}
	if st := s.State(); st != StateDegraded {
		t.Fatalf("state after fault: %v, want degraded", st)
	}
	reason, since, degraded := s.Degraded()
	if !degraded || reason == nil || since.IsZero() {
		t.Fatalf("Degraded() = (%v, %v, %v) after fault", reason, since, degraded)
	}

	// Later writes fail fast with both sentinels, without touching disk.
	before := ffs.Ops(vfs.OpWrite)
	_, err := s.ApplyBatch(randomBatch(cfg, src))
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrWALFailed) {
		t.Fatalf("degraded write error %v, want ErrDegraded and ErrWALFailed", err)
	}
	if got := ffs.Ops(vfs.OpWrite); got != before {
		t.Fatalf("degraded write touched the disk (%d -> %d writes)", before, got)
	}

	// Reads keep serving the last published snapshot, bit-identically.
	if !bytes.Equal(snapshotBytes(t, s.Snapshot()), preBytes) {
		t.Fatal("published snapshot changed while degraded")
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedSince.IsZero() || st.WALError == "" {
		t.Fatalf("stats do not report degradation: %+v", st)
	}

	// Operator clears the fault; recovery re-opens the log and resumes.
	ffs.Clear()
	if err := s.Recover(); err != nil {
		t.Fatalf("recover on healed disk: %v", err)
	}
	if st := s.State(); st != StateHealthy {
		t.Fatalf("state after recover: %v, want healthy", st)
	}
	if _, _, degraded := s.Degraded(); degraded {
		t.Fatal("Degraded() still true after recover")
	}
	if v := s.Snapshot().Version(); v != preVersion {
		t.Fatalf("version %d after recover, want %d (failed batch must not apply)", v, preVersion)
	}
	more := randomBatch(cfg, src)
	if _, err := s.ApplyBatch(more); err != nil {
		t.Fatalf("write after recover: %v", err)
	}
	acked = append(acked, more)

	// The recovered server equals a sequential replay of exactly the
	// acknowledged batches.
	ref := mustOpen(t, durableConfig(""))
	defer ref.Close()
	for _, b := range acked {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]*bitvec.Vector, 8)
	psrc := rng.New(5)
	for i := range probes {
		probes[i] = bitvec.Random(cfg.Dim, psrc)
	}
	requireSameState(t, s, ref, probes)

	// And the degradation survives nowhere: a restart from the directory
	// sees the same state.
	s.Close()
	re := mustOpen(t, cfg)
	defer re.Close()
	requireSameState(t, re, ref, probes)
}

func TestRecoverCatchesUpUnackedRecord(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	s := mustOpen(t, cfg)
	defer s.Close()

	src := rng.New(7)
	first := randomBatch(cfg, src)
	if _, err := s.ApplyBatch(first); err != nil {
		t.Fatal(err)
	}

	// The record hits the disk but its fsync fails: written, never
	// acknowledged. Recovery must treat it like a crash would — replay it.
	ffs.Arm(vfs.Fault{Op: vfs.OpSync, Path: ".seg", Err: vfs.ErrIO, Count: 1})
	lost := randomBatch(cfg, src)
	if _, err := s.ApplyBatch(lost); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with failing fsync: %v, want EIO", err)
	}
	if v := s.Snapshot().Version(); v != 1 {
		t.Fatalf("version %d after unacked append, want 1", v)
	}

	ffs.Clear()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := s.Snapshot().Version(); v != 2 {
		t.Fatalf("version %d after catch-up, want 2 (the unacked record replays)", v)
	}

	ref := mustOpen(t, durableConfig(""))
	defer ref.Close()
	for _, b := range []Batch{first, lost} {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, s, ref, nil)
}

func TestRecoverRefusesWhenAckedRecordsLost(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	s := mustOpen(t, cfg)
	defer s.Close()

	src := rng.New(11)
	for i := 0; i < 5; i++ {
		if _, err := s.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Arm(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Err: vfs.ErrIO, Count: 1})
	if _, err := s.ApplyBatch(randomBatch(cfg, src)); err == nil {
		t.Fatal("faulted append succeeded")
	}
	ffs.Clear()

	// The "repair" destroys the log: every acknowledged record vanishes.
	for _, path := range s.wal.Segments() {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Recover()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("recover over an emptied log: %v, want ErrUnrecoverable", err)
	}
	if st := s.State(); st != StateDegraded {
		t.Fatalf("state after refused recovery: %v, want degraded (still)", st)
	}
}

func TestAutoRetryProbeRecovers(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	cfg.WAL.RetryInterval = 5 * time.Millisecond
	cfg.WAL.RetryMax = 200
	s := mustOpen(t, cfg)
	defer s.Close()

	src := rng.New(3)
	if _, err := s.ApplyBatch(randomBatch(cfg, src)); err != nil {
		t.Fatal(err)
	}
	// One transient EIO on fsync; the fault self-clears (Count: 1), so the
	// probe's reopen succeeds without operator action.
	ffs.Arm(vfs.Fault{Op: vfs.OpSync, Path: ".seg", Err: vfs.ErrIO, Count: 1})
	if _, err := s.ApplyBatch(randomBatch(cfg, src)); err == nil {
		t.Fatal("faulted append succeeded")
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.State() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatal("probe did not recover the server")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.ApplyBatch(randomBatch(cfg, src)); err != nil {
		t.Fatalf("write after probe recovery: %v", err)
	}
}

func TestApplyBatchContextExpiredFailsDeterministically(t *testing.T) {
	s := mustOpen(t, durableConfig(""))
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ApplyBatchContext(ctx, Batch{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := s.ApplyBatchContext(ctx, Batch{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

func TestApplyBatchContextTimesOutBehindSlowWriter(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	s := mustOpen(t, cfg)
	defer s.Close()

	src := rng.New(21)
	// The first writer stalls 400 ms inside its record write while holding
	// the write slot; no error, just a slow disk. (.seg write 1 is the
	// segment header laid down by rotation; write 2 is the record.)
	ffs.Arm(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Delay: 400 * time.Millisecond, After: 1, Count: 1})
	slow := randomBatch(cfg, src)
	done := make(chan error, 1)
	go func() {
		_, err := s.ApplyBatch(slow)
		done <- err
	}()
	// Wait until the stalled writer is provably inside the injected delay.
	for ffs.Fired() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.ApplyBatchContext(ctx, randomBatch(cfg, src)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued writer past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow writer failed: %v", err)
	}
	// The slow writer's batch was applied; the timed-out one was not.
	if v := s.Snapshot().Version(); v != 1 {
		t.Fatalf("version %d, want 1", v)
	}
}

// TestFailedSetAsideKeepsFallbackCheckpoint: a corrupt checkpoint that
// cannot be set aside aborts Open with the checkpoint set intact. Left in
// place, it would hold a KeepCheckpoints slot, and the next Checkpoint
// would retire the good fallback and compact the log past it. And once no
// loadable checkpoint covers the records compaction dropped, Open refuses
// with ErrUnrecoverable instead of replaying into the gap.
func TestFailedSetAsideKeepsFallbackCheckpoint(t *testing.T) {
	cfg, ffs := faultedConfig(t)
	cfg.WAL.CheckpointEvery = -1
	cfg.WAL.SegmentBytes = 1024 // many small segments so compaction bites
	src := rng.New(47)

	var batches []Batch
	apply := func(s *Server, n int) {
		for i := 0; i < n; i++ {
			b := randomBatch(cfg, src)
			batches = append(batches, b)
			if _, err := s.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func(s *Server) {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	closeServer := func(s *Server) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := func(version uint64) string { return filepath.Join(cfg.WAL.Dir, checkpointName(version)) }
	rot := func(version uint64) {
		raw, err := os.ReadFile(ckpt(version))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/3] ^= 0x10
		if err := os.WriteFile(ckpt(version), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := mustOpen(t, cfg)
	apply(s, 8)
	checkpoint(s)
	apply(s, 8)
	checkpoint(s)
	apply(s, 4)
	closeServer(s)
	rot(16)

	ffs.Arm(vfs.Fault{Op: vfs.OpRename, Path: "ckpt-", Err: vfs.ErrIO, Count: 1})
	if s, err := Open(cfg); err == nil {
		s.Close()
		t.Fatal("Open succeeded although the corrupt checkpoint could not be set aside")
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Open with a failed set-aside: %v, want the injected EIO", err)
	}
	for _, v := range []uint64{8, 16} {
		if _, err := os.Stat(ckpt(v)); err != nil {
			t.Fatalf("checkpoint v%d after the aborted Open: %v", v, err)
		}
	}

	// The retry sets v16 aside and recovers from v8. The next checkpoint
	// keeps v8 as its fallback, so rotting it too loses nothing.
	s = mustOpen(t, cfg)
	apply(s, 4)
	checkpoint(s)
	closeServer(s)
	rot(24)
	rec := mustOpen(t, cfg)
	ref := mustOpen(t, durableConfig(""))
	for _, b := range batches {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, rec, ref, []*bitvec.Vector{bitvec.Random(cfg.Dim, rng.New(8))})

	// Two more checkpoints retire v8 and compact the log past it. With both
	// rotted, no checkpoint covers the records compaction dropped.
	apply(rec, 4)
	checkpoint(rec)
	apply(rec, 4)
	checkpoint(rec)
	closeServer(rec)
	rot(28)
	rot(32)
	if s, err := Open(cfg); !errors.Is(err, ErrUnrecoverable) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open with the log's head compacted away: %v, want ErrUnrecoverable", err)
	}
}
