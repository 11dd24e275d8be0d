package serve

// Replication-surface tests: the serve layer's follower mode. The
// invariant everything here leans on is the same one crash recovery
// proves — a follower that applied the primary's records through
// ApplyReplicated is bit-identical to the primary at the same version.

import (
	"context"
	"errors"
	"testing"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
	"hdcirc/internal/wal"
)

// shipAll streams every retained primary record at or above the
// follower's next version into the follower.
func shipAll(t *testing.T, primary, follower *Server) {
	t.Helper()
	ctx := context.Background()
	from := follower.Snapshot().Version() + 1
	if _, err := primary.WALStreamFrom(from, func(seq uint64, payload []byte) error {
		return follower.ApplyReplicated(ctx, seq, payload)
	}); err != nil {
		t.Fatalf("shipping from %d: %v", from, err)
	}
}

func TestFollowerRejectsClientWrites(t *testing.T) {
	s := mustOpen(t, durableConfig(t.TempDir()))
	defer s.Close()
	if err := s.BecomeFollower("http://primary:9000"); err != nil {
		t.Fatal(err)
	}
	if got := s.Role(); got != RoleFollower {
		t.Fatalf("Role = %v", got)
	}
	if got := s.PrimaryURL(); got != "http://primary:9000" {
		t.Fatalf("PrimaryURL = %q", got)
	}
	_, err := s.ApplyBatch(Batch{Train: []Sample{{Class: 0, HV: bitvec.Random(s.cfg.Dim, rng.New(1))}}})
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ApplyBatch on follower = %v, want ErrNotPrimary", err)
	}
	if err == nil || !contains(err.Error(), "http://primary:9000") {
		t.Fatalf("error %v does not carry the primary URL", err)
	}
	// Promote-on-demand: writes flow again, replicated applies stop.
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(Batch{Items: []string{"x"}}); err != nil {
		t.Fatalf("ApplyBatch after Promote: %v", err)
	}
	if err := s.ApplyReplicated(context.Background(), 2, encodeBatch(&Batch{Items: []string{"y"}})); err == nil {
		t.Fatal("ApplyReplicated on a primary succeeded")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReplicatedFollowerBitIdentical ships a full random history to a
// follower and requires bit-identical state at the same version, across a
// follower restart (the follower's own WAL must carry the records).
func TestReplicatedFollowerBitIdentical(t *testing.T) {
	src := rng.New(42)
	primary := mustOpen(t, durableConfig(t.TempDir()))
	defer primary.Close()

	followerDir := t.TempDir()
	follower := mustOpen(t, durableConfig(followerDir))
	if err := follower.BecomeFollower(""); err != nil {
		t.Fatal(err)
	}

	cfg := primary.Config()
	for i := 0; i < 25; i++ {
		if _, err := primary.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, follower)

	probes := make([]*bitvec.Vector, 8)
	for i := range probes {
		probes[i] = bitvec.Random(cfg.Dim, src)
	}
	requireSameState(t, follower, primary, probes)

	// Replaying an already-applied record is a sequence error, not silent
	// double-application.
	var lastPayload []byte
	var lastSeq uint64
	if _, err := primary.WALStreamFrom(1, func(seq uint64, payload []byte) error {
		lastSeq, lastPayload = seq, append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(context.Background(), lastSeq, lastPayload); !errors.Is(err, ErrReplSeq) {
		t.Fatalf("stale replicated record = %v, want ErrReplSeq", err)
	}
	if err := follower.ApplyReplicated(context.Background(), lastSeq+2, lastPayload); !errors.Is(err, ErrReplSeq) {
		t.Fatalf("gapped replicated record = %v, want ErrReplSeq", err)
	}

	// Restart the follower from its own directory: local recovery must
	// land on the same bits, and shipping must resume where it left off.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = mustOpen(t, durableConfig(followerDir))
	defer follower.Close()
	if err := follower.BecomeFollower(""); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, follower, primary, probes)

	for i := 0; i < 10; i++ {
		if _, err := primary.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, follower)
	requireSameState(t, follower, primary, probes)
}

// TestInstallCheckpointSeedsLaggedFollower compacts the primary's log past
// a fresh follower's position, seeds it with EncodeCheckpoint, ships the
// suffix, and requires bit-identical state — across a follower restart,
// because InstallCheckpoint persists the image to the follower's own dir.
func TestInstallCheckpointSeedsLaggedFollower(t *testing.T) {
	src := rng.New(7)
	cfgDir := t.TempDir()
	cfg := durableConfig(cfgDir)
	cfg.WAL.KeepCheckpoints = 1
	cfg.WAL.SegmentBytes = 512 // rotate often so TruncateBefore can drop segments
	primary := mustOpen(t, cfg)
	defer primary.Close()
	for i := 0; i < 20; i++ {
		if _, err := primary.ApplyBatch(randomBatch(primary.Config(), src)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := primary.ApplyBatch(randomBatch(primary.Config(), src)); err != nil {
			t.Fatal(err)
		}
	}
	oldest, ok := primary.WALOldestSeq()
	if !ok || oldest <= 1 {
		t.Fatalf("primary log not compacted: oldest %d ok %v", oldest, ok)
	}

	followerDir := t.TempDir()
	follower := mustOpen(t, durableConfig(followerDir))
	if err := follower.BecomeFollower(""); err != nil {
		t.Fatal(err)
	}
	// A fresh follower cannot suffix-catch-up past compaction.
	if _, err := primary.WALStreamFrom(1, func(uint64, []byte) error { return nil }); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("StreamFrom(1) = %v, want ErrCompacted", err)
	}
	version, image, err := primary.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallCheckpoint(context.Background(), image); err != nil {
		t.Fatal(err)
	}
	if got := follower.Snapshot().Version(); got != version {
		t.Fatalf("installed version %d, want %d", got, version)
	}
	shipAll(t, primary, follower)

	probes := []*bitvec.Vector{bitvec.Random(cfg.Dim, src), bitvec.Random(cfg.Dim, src)}
	requireSameState(t, follower, primary, probes)

	// Installing an image older than the applied version must rewind
	// nothing: advance both past the image's version first.
	if _, err := primary.ApplyBatch(randomBatch(primary.Config(), src)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, follower)
	if err := follower.InstallCheckpoint(context.Background(), image); !errors.Is(err, ErrReplSeq) {
		t.Fatalf("stale InstallCheckpoint = %v, want ErrReplSeq", err)
	}
	requireSameState(t, follower, primary, probes)

	// Restart: the persisted image + locally logged suffix must recover
	// the same bits.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = mustOpen(t, durableConfig(followerDir))
	defer follower.Close()
	requireSameState(t, follower, primary, probes)
}

func TestSubscribeAppliedCoalesces(t *testing.T) {
	s := mustOpen(t, durableConfig(t.TempDir()))
	defer s.Close()
	ch, cancel := s.SubscribeApplied()
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyBatch(Batch{Items: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no apply notification")
	}
	// Three applies coalesce to at most one pending token now.
	select {
	case <-ch:
	default:
	}
	select {
	case <-ch:
		t.Fatal("notifications did not coalesce")
	default:
	}
	cancel()
	if _, err := s.ApplyBatch(Batch{Items: []string{"c"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("notified after cancel")
	default:
	}
}

func TestStatsReplicationBlock(t *testing.T) {
	s := mustOpen(t, durableConfig(t.TempDir()))
	defer s.Close()
	if st := s.Stats(); st.Role != "" || st.Replication != nil {
		t.Fatalf("untiered server leaked replication stats: %+v", st)
	}
	if err := s.BecomeFollower("http://p"); err != nil {
		t.Fatal(err)
	}
	s.SetReplicationStatsFunc(func() ReplicationStats {
		return ReplicationStats{FollowerLagSeq: 3, LastAckedSeq: 17}
	})
	st := s.Stats()
	if st.Role != "follower" {
		t.Fatalf("Role = %q", st.Role)
	}
	if st.Replication == nil || st.Replication.FollowerLagSeq != 3 || st.Replication.LastAckedSeq != 17 {
		t.Fatalf("Replication = %+v", st.Replication)
	}
}
