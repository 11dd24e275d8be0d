package serve

// Chaos property test: random op sequences (writes, checkpoints,
// recoveries) under randomly scheduled storage faults — ENOSPC, EIO,
// torn writes, failed fsyncs, failed directory syncs, failed checkpoint
// renames — injected through the vfs seam. The property, for every seed:
//
//   - Every fault surfaces as a typed error (ErrWALFailed wrapped in
//     ErrDegraded for the write plane) while reads keep serving the last
//     published snapshot at exactly the acknowledged version.
//   - After the fault clears, Recover returns the server to healthy, and
//     its state is bit-identical to a fresh in-memory server replaying
//     exactly the applied batches — every acknowledged batch, in order,
//     plus at most the one in-flight batch per incident that reached the
//     log before its fault (the same record a crash restart would replay).
//   - A restart from the directory agrees with the recovered server.
//
// An acknowledged-then-lost write is the failing case, and the reason
// this test exists.
//
// Seeds: a fixed set by default (deterministic in CI), plus every crasher
// recorded under testdata/chaos/, plus CHAOS_SEEDS=1,2,3 (exact seeds) or
// CHAOS_RANDOM=n (n time-derived seeds, the nightly mode). A failing
// random seed is written to testdata/chaos/ so the failure rides into the
// repo as a regression once committed.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
	"hdcirc/internal/vfs"
)

const chaosDir = "testdata/chaos"

func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		var seeds []uint64
		for _, part := range strings.Split(env, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS entry %q: %v", part, err)
			}
			seeds = append(seeds, n)
		}
		return seeds
	}
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	// Recorded crashers replay as regressions.
	if entries, err := os.ReadDir(chaosDir); err == nil {
		for _, e := range entries {
			if n, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "seed-"), 10, 64); err == nil {
				seeds = append(seeds, n)
			}
		}
	}
	if n, _ := strconv.Atoi(os.Getenv("CHAOS_RANDOM")); n > 0 {
		base := uint64(time.Now().UnixNano())
		for i := 0; i < n; i++ {
			seeds = append(seeds, base+uint64(i)*0x9e3779b97f4a7c15)
		}
	}
	return seeds
}

// saveCrasher records a failing seed so the schedule replays forever.
func saveCrasher(t *testing.T, seed uint64) {
	t.Helper()
	if err := os.MkdirAll(chaosDir, 0o755); err != nil {
		t.Logf("recording crasher: %v", err)
		return
	}
	path := filepath.Join(chaosDir, fmt.Sprintf("seed-%d", seed))
	if err := os.WriteFile(path, []byte(strconv.FormatUint(seed, 10)+"\n"), 0o644); err != nil {
		t.Logf("recording crasher: %v", err)
		return
	}
	t.Logf("crasher recorded: %s", path)
}

// chaosFault draws one fault from the menu. Count 1 models a transient
// glitch, Count 0 a fault that persists until the operator (the test's
// reconcile step) clears it.
func chaosFault(src *rng.Stream) vfs.Fault {
	count := src.Intn(2) // 0 = sticky, 1 = one-shot
	switch src.Intn(7) {
	case 0:
		return vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Err: vfs.ErrNoSpace, Count: count}
	case 1: // torn write: a prefix reaches the platter, then EIO
		return vfs.Fault{Op: vfs.OpWrite, Path: ".seg", Err: vfs.ErrIO, Count: count, KeepBytes: src.Intn(16)}
	case 2:
		return vfs.Fault{Op: vfs.OpSync, Path: ".seg", Err: vfs.ErrIO, Count: count}
	case 3:
		return vfs.Fault{Op: vfs.OpSyncDir, Err: vfs.ErrIO, Count: count}
	case 4:
		return vfs.Fault{Op: vfs.OpWrite, Path: "ckpt-", Err: vfs.ErrNoSpace, Count: count}
	case 5:
		return vfs.Fault{Op: vfs.OpRename, Path: "ckpt-", Err: vfs.ErrIO, Count: count}
	default:
		return vfs.Fault{Op: vfs.OpSync, Path: "ckpt-", Err: vfs.ErrIO, Count: count}
	}
}

func TestChaosFaultSchedules(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := runChaos(t, seed); err != nil {
				saveCrasher(t, seed)
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

func runChaos(t *testing.T, seed uint64) error {
	t.Helper()
	src := rng.New(seed)
	ffs := vfs.NewFaultFS(nil)
	ffs.Seed(seed)
	cfg := durableConfig(t.TempDir())
	cfg.WAL.FS = ffs
	cfg.WAL.SegmentBytes = int64(1024 + src.Intn(2048)) // small: rotation under fire
	cfg.WAL.CheckpointEvery = -1                        // checkpoints only when the schedule says so
	s := mustOpen(t, cfg)
	defer s.Close()

	var (
		applied []Batch // the model: batches the recovered server must equal
		pending *Batch  // the one batch per incident that MAY be in the log
		armed   bool
	)

	// reconcile clears the fault and recovers, then settles whether the
	// incident's in-flight batch reached the log: the version says.
	reconcile := func(step int) error {
		ffs.Clear()
		armed = false
		if err := s.Recover(); err != nil {
			return fmt.Errorf("step %d: recover on cleared fault: %v", step, err)
		}
		if st := s.State(); st != StateHealthy {
			return fmt.Errorf("step %d: state %v after recover", step, st)
		}
		v := s.Snapshot().Version()
		switch {
		case v == uint64(len(applied)):
			pending = nil // never reached the log (or its tail was torn off)
		case pending != nil && v == uint64(len(applied))+1:
			applied = append(applied, *pending) // durable but unacked: replayed
			pending = nil
		default:
			return fmt.Errorf("step %d: version %d after recovery, %d acked, pending=%v — acked writes lost or invented",
				step, v, len(applied), pending != nil)
		}
		return nil
	}

	steps := 60
	for i := 0; i < steps; i++ {
		switch r := src.Intn(10); {
		case r < 6: // a write batch
			b := randomBatch(cfg, src)
			_, err := s.ApplyBatch(b)
			if err == nil {
				applied = append(applied, b)
				if v := s.Snapshot().Version(); v != uint64(len(applied)) {
					return fmt.Errorf("step %d: version %d after ack %d", i, v, len(applied))
				}
				break
			}
			// Every write failure must be typed — and the first one of an
			// incident is the only batch that may have touched the log.
			if !errors.Is(err, ErrWALFailed) || !errors.Is(err, ErrDegraded) {
				return fmt.Errorf("step %d: untyped write failure: %v", i, err)
			}
			if pending == nil && s.State() == StateDegraded {
				pending = &b
			}
			// Reads must keep serving the acked state mid-incident.
			if v := s.Snapshot().Version(); v != uint64(len(applied)) {
				return fmt.Errorf("step %d: degraded reads at version %d, want %d", i, v, len(applied))
			}
		case r == 6: // a checkpoint; failure is tolerated but must be clean
			if _, err := s.Checkpoint(); err != nil {
				if leftover := globTmp(t, cfg.WAL.Dir); len(leftover) > 0 {
					return fmt.Errorf("step %d: failed checkpoint leaked %v", i, leftover)
				}
			}
		case r == 7: // the disk develops a fault
			if !armed {
				ffs.Arm(chaosFault(src))
				armed = true
			}
		case r == 8: // the operator shows up
			if s.State() == StateDegraded {
				if err := reconcile(i); err != nil {
					return err
				}
			}
		default: // a read probe: the snapshot must always be consultable
			snap := s.Snapshot()
			if snap == nil || snap.Version() != uint64(len(applied)) {
				return fmt.Errorf("step %d: read probe at version %v, want %d", i, snap.Version(), len(applied))
			}
		}
	}

	// Final heal: every schedule ends with a recovered server.
	if err := reconcile(steps); err != nil {
		return err
	}
	if leftover := globTmp(t, cfg.WAL.Dir); len(leftover) > 0 {
		return fmt.Errorf("end of run: leaked tmp files %v", leftover)
	}

	// The recovered server equals a fresh replay of exactly the applied
	// batches…
	ref := mustOpen(t, durableConfig(""))
	defer ref.Close()
	for k, b := range applied {
		if _, err := ref.ApplyBatch(b); err != nil {
			return fmt.Errorf("reference replay batch %d: %v", k, err)
		}
	}
	probes := make([]*bitvec.Vector, 6)
	psrc := rng.New(seed ^ 0xdecafbad)
	for i := range probes {
		probes[i] = bitvec.Random(cfg.Dim, psrc)
	}
	requireSameState(t, s, ref, probes)

	// …and so does a restart from the directory on a healthy disk.
	if err := s.Close(); err != nil {
		return fmt.Errorf("closing chaos server: %v", err)
	}
	clean := cfg
	clean.WAL = &WALConfig{Dir: cfg.WAL.Dir}
	re := mustOpen(t, clean)
	defer re.Close()
	requireSameState(t, re, ref, probes)
	return nil
}

// globTmp lists leftover atomic-write temporaries in the durability dir.
func globTmp(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}
