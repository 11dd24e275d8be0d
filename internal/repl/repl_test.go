package repl

// End-to-end replication tests over the real wire: a primary behind the
// v1 handler (httptest) shipping to followers through Source +
// StartFollower. The invariant every test closes with is the tier's whole
// promise: a converged follower is BIT-identical to the primary at the
// same version. The chaos test at the bottom is the property test the CI
// race leg runs: random kill points on both halves of the stream plus
// random checkpoint cadence must never break that invariant.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/rng"
	"hdcirc/internal/serve"
)

const testDim = 384

// durableConfig mirrors the serve test fixture: several shards, so both
// write kinds route across them.
func durableConfig(dir string) serve.Config {
	cfg := serve.Config{Dim: testDim, Classes: 7, Shards: 3, Workers: 2, Seed: 1234}
	cfg.WAL = &serve.WALConfig{Dir: dir}
	return cfg
}

// randomBatch draws one batch of Train samples and item symbols.
func randomBatch(cfg serve.Config, src *rng.Stream) serve.Batch {
	var b serve.Batch
	for i, n := 0, int(src.Uint64()%4); i < n; i++ {
		b.Train = append(b.Train, serve.Sample{Class: int(src.Uint64() % uint64(cfg.Classes)), HV: bitvec.Random(cfg.Dim, src)})
	}
	for i, n := 0, int(src.Uint64()%3); i < n; i++ {
		b.Items = append(b.Items, fmt.Sprintf("item/%d", src.Uint64()%50))
	}
	return b
}

func snapshotBytes(t *testing.T, s *serve.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireIdentical asserts the follower is bit-identical to the primary:
// same version, same serialized snapshot stream.
func requireIdentical(t *testing.T, follower, primary *serve.Server) {
	t.Helper()
	fs, ps := follower.Snapshot(), primary.Snapshot()
	if fs.Version() != ps.Version() {
		t.Fatalf("follower at version %d, primary at %d", fs.Version(), ps.Version())
	}
	if !bytes.Equal(snapshotBytes(t, fs), snapshotBytes(t, ps)) {
		t.Fatalf("snapshot streams differ at version %d", fs.Version())
	}
}

func mustOpen(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startPrimary stands up a durable primary behind the real v1 handler
// with replication enabled.
func startPrimary(t *testing.T, srv *serve.Server) *httptest.Server {
	t.Helper()
	src, err := NewSource(SourceConfig{Server: srv, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := httpapi.NewScalarRecordEncoder(httpapi.ScalarRecordConfig{Dim: testDim, Fields: 2, Lo: 0, Hi: 1, Levels: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.New(httpapi.Config{Server: srv, Encoder: enc, Replication: src})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts
}

func startFollower(t *testing.T, ctx context.Context, srv *serve.Server, primaryURL string) *Follower {
	t.Helper()
	f, err := StartFollower(ctx, FollowerConfig{
		Server:       srv,
		PrimaryURL:   primaryURL,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
		AckEvery:     1,
		AckInterval:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitVersion polls until srv's applied version reaches want.
func waitVersion(t *testing.T, srv *serve.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for srv.Snapshot().Version() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out at version %d waiting for %d", srv.Snapshot().Version(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReplicationCatchUpAndLiveTail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	psrv := mustOpen(t, durableConfig(t.TempDir()))
	defer psrv.Close()
	ts := startPrimary(t, psrv)

	// Catch-up: the primary has history before the follower ever connects.
	src := rng.Sub(42, "repl/e2e")
	cfg := durableConfig("")
	for i := 0; i < 30; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	fsrv := mustOpen(t, durableConfig(t.TempDir()))
	defer fsrv.Close()
	f := startFollower(t, ctx, fsrv, ts.URL)
	defer f.Close()
	waitVersion(t, fsrv, psrv.Snapshot().Version())
	requireIdentical(t, fsrv, psrv)

	// Live tail: new primary writes flow through the open stream.
	for i := 0; i < 20; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion(t, fsrv, psrv.Snapshot().Version())
	requireIdentical(t, fsrv, psrv)

	// The follower is read-only for clients, and both sides surface the
	// tier in stats.
	if _, err := fsrv.ApplyBatch(randomBatch(cfg, src)); !errors.Is(err, serve.ErrNotPrimary) {
		t.Fatalf("follower accepted a client write: %v", err)
	}
	fst := fsrv.Stats()
	if fst.Role != "follower" || fst.Replication == nil {
		t.Fatalf("follower stats missing replication block: %+v", fst)
	}
	if got := fst.Replication.LastAckedSeq; got != fsrv.Snapshot().Version() {
		t.Fatalf("follower last_acked_seq = %d, want %d", got, fsrv.Snapshot().Version())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		pst := psrv.Stats()
		if pst.Role != "primary" {
			t.Fatalf("shipping primary reports role %q, want primary", pst.Role)
		}
		if pst.Replication != nil && pst.Replication.ConnectedFollowers == 1 &&
			pst.Replication.LastAckedSeq == psrv.Snapshot().Version() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the follower fully acked: %+v", pst.Replication)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerSeedsFromCheckpointPastCompaction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := durableConfig(t.TempDir())
	cfg.WAL.SegmentBytes = 768
	cfg.WAL.KeepCheckpoints = 1
	psrv := mustOpen(t, cfg)
	defer psrv.Close()
	ts := startPrimary(t, psrv)

	src := rng.Sub(7, "repl/seed")
	for i := 0; i < 25; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := psrv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	if oldest, ok := psrv.WALOldestSeq(); !ok || oldest <= 1 {
		t.Fatalf("primary log not compacted (oldest %d); the test needs a seed path", oldest)
	}

	// A brand-new follower starts below the compaction horizon, so its
	// catch-up MUST begin with an in-band checkpoint seed.
	fdir := t.TempDir()
	fsrv := mustOpen(t, durableConfig(fdir))
	defer fsrv.Close()
	f := startFollower(t, ctx, fsrv, ts.URL)
	defer f.Close()
	waitVersion(t, fsrv, psrv.Snapshot().Version())
	requireIdentical(t, fsrv, psrv)

	// And the seeded follower's own durability works: restart from its own
	// directory recovers the same state and rejoins the live tail.
	f.Close()
	if err := fsrv.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, durableConfig(fdir))
	defer re.Close()
	requireIdentical(t, re, psrv)
	f2 := startFollower(t, ctx, re, ts.URL)
	defer f2.Close()
	if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, re, psrv.Snapshot().Version())
	requireIdentical(t, re, psrv)
}

func TestFollowerFollowsNotPrimaryRedirect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	psrv := mustOpen(t, durableConfig(t.TempDir()))
	defer psrv.Close()
	ts := startPrimary(t, psrv)

	// A second node that is itself a follower of the real primary: its
	// replicate endpoint must answer not_primary with the redirect hint.
	osrv := mustOpen(t, durableConfig(t.TempDir()))
	defer osrv.Close()
	if err := osrv.BecomeFollower(ts.URL); err != nil {
		t.Fatal(err)
	}
	enc, err := httpapi.NewScalarRecordEncoder(httpapi.ScalarRecordConfig{Dim: testDim, Fields: 2, Lo: 0, Hi: 1, Levels: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	oapi, err := httpapi.New(httpapi.Config{Server: osrv, Encoder: enc})
	if err != nil {
		t.Fatal(err)
	}
	ots := httptest.NewServer(oapi)
	t.Cleanup(ots.Close)

	src := rng.Sub(11, "repl/redirect")
	cfg := durableConfig("")
	for i := 0; i < 5; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}

	// Point the follower at the WRONG node; it must adopt the hint and
	// converge against the real primary.
	fsrv := mustOpen(t, durableConfig(t.TempDir()))
	defer fsrv.Close()
	f := startFollower(t, ctx, fsrv, ots.URL)
	defer f.Close()
	waitVersion(t, fsrv, psrv.Snapshot().Version())
	requireIdentical(t, fsrv, psrv)
	if got := f.PrimaryURL(); got != ts.URL {
		t.Fatalf("follower primary = %q, want adopted %q", got, ts.URL)
	}
}

// TestReplicationChaosKillPoints is the tier's property test: a follower
// that is killed at random points (its own process via Close+reopen, or
// the primary-side stream via connection kills) under a random checkpoint
// cadence must always reconverge to a bit-identical snapshot.
func TestReplicationChaosKillPoints(t *testing.T) {
	seeds := []uint64{3, 17, 91}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			src := rng.Sub(seed, "repl/chaos")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			pcfg := durableConfig(t.TempDir())
			pcfg.WAL.SegmentBytes = 1536
			pcfg.WAL.KeepCheckpoints = 1
			// Random automatic checkpoint cadence; -1 disables (only
			// explicit checkpoints below).
			switch src.Uint64() % 3 {
			case 0:
				pcfg.WAL.CheckpointEvery = -1
			default:
				pcfg.WAL.CheckpointEvery = 3 + int(src.Uint64()%12)
			}
			psrv := mustOpen(t, pcfg)
			defer psrv.Close()
			ts := startPrimary(t, psrv)

			fdir := t.TempDir()
			fsrv := mustOpen(t, durableConfig(fdir))
			f := startFollower(t, ctx, fsrv, ts.URL)
			defer func() { f.Close(); fsrv.Close() }()

			for round := 0; round < 10; round++ {
				for i, n := 0, 1+int(src.Uint64()%8); i < n; i++ {
					if _, err := psrv.ApplyBatch(randomBatch(pcfg, src)); err != nil {
						t.Fatal(err)
					}
				}
				if src.Uint64()%4 == 0 {
					if _, err := psrv.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// The kill point: nothing, a primary-side stream kill, or a
				// follower crash (close + reopen from its own directory, the
				// real recovery path).
				switch src.Uint64() % 3 {
				case 0:
				case 1:
					ts.CloseClientConnections()
				case 2:
					f.Close()
					if err := fsrv.Close(); err != nil {
						t.Fatal(err)
					}
					fsrv = mustOpen(t, durableConfig(fdir))
					f = startFollower(t, ctx, fsrv, ts.URL)
				}
				waitVersion(t, fsrv, psrv.Snapshot().Version())
				requireIdentical(t, fsrv, psrv)
			}
		})
	}
}

// The observability contract of Stats schema v2: a follower behind the
// primary's head surfaces nonzero lag through its server's stats, and the
// lag drains to zero once it converges.
func TestFollowerLagReportsAndConverges(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: a stub primary that only announces head_seq=7 and ships
	// nothing — the follower cannot catch up, so its stats must pin the
	// lag at 7.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(httpapi.ReplicateFrame{Heartbeat: true, HeadSeq: 7})
		w.(http.Flusher).Flush()
		// Hold the stream open, shipping nothing. Draining the ack body
		// (rather than waiting on the request context) is what lets the
		// server notice the follower hanging up and end the handler.
		io.Copy(io.Discard, r.Body)
	}))
	defer stub.Close()

	fsrv := mustOpen(t, durableConfig(t.TempDir()))
	defer fsrv.Close()
	f := startFollower(t, ctx, fsrv, stub.URL)
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := fsrv.Stats()
		if st.Role == "follower" && st.Replication != nil && st.Replication.FollowerLagSeq == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported lag 7: %+v", st.Replication)
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.Close()

	// Phase 2: re-point the same follower server at a real primary that IS
	// at version 7 — the backlog applies and the reported lag converges to
	// zero.
	cfg := durableConfig("")
	psrv := mustOpen(t, durableConfig(t.TempDir()))
	defer psrv.Close()
	ts := startPrimary(t, psrv)
	src := rng.Sub(11, "repl/lag")
	for i := 0; i < 7; i++ {
		if _, err := psrv.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	f2 := startFollower(t, ctx, fsrv, ts.URL)
	defer f2.Close()
	waitVersion(t, fsrv, 7)
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := fsrv.Stats()
		if st.Replication != nil && st.Replication.FollowerLagSeq == 0 && st.Replication.LastAckedSeq == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower lag never converged to zero: %+v", st.Replication)
		}
		time.Sleep(2 * time.Millisecond)
	}
	requireIdentical(t, fsrv, psrv)
}
