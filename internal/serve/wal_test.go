package serve

// Durability tests. The load-bearing one is the crash-recovery property
// test: for a random op sequence over both write kinds, kill the server at
// any record boundary or mid-record (byte-level truncation of the log
// tail) and require that Open recovers a snapshot bit-identical to a fresh
// in-memory server replaying the surviving prefix sequentially — with and
// without checkpoints in the history. Run under -race in CI.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
	"hdcirc/internal/wal"
)

// durableConfig is the durable fixture: several shards, so both write
// kinds route across them and through the log.
func durableConfig(dir string) Config {
	cfg := Config{Dim: 384, Classes: 7, Shards: 3, Workers: 2, Seed: 1234}
	if dir != "" {
		cfg.WAL = &WALConfig{Dir: dir}
	}
	return cfg
}

// randomBatch draws one batch of Train samples and item symbols,
// deterministically from src. Either part may be empty.
func randomBatch(cfg Config, src *rng.Stream) Batch {
	var b Batch
	for i, n := 0, int(src.Uint64()%4); i < n; i++ {
		b.Train = append(b.Train, Sample{Class: int(src.Uint64() % uint64(cfg.Classes)), HV: bitvec.Random(cfg.Dim, src)})
	}
	for i, n := 0, int(src.Uint64()%3); i < n; i++ {
		b.Items = append(b.Items, fmt.Sprintf("item/%d", src.Uint64()%50))
	}
	return b
}

// snapshotBytes serializes a snapshot for bit-level comparison.
func snapshotBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameState asserts two servers are bit-identical: snapshot stream
// and item lookups.
func requireSameState(t *testing.T, got, want *Server, probes []*bitvec.Vector) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.Version() != ws.Version() {
		t.Fatalf("version %d, want %d", gs.Version(), ws.Version())
	}
	if !bytes.Equal(snapshotBytes(t, gs), snapshotBytes(t, ws)) {
		t.Fatal("snapshot streams differ")
	}
	for i, q := range probes {
		gsym, gsim, gok := gs.Lookup(q)
		wsym, wsim, wok := ws.Lookup(q)
		if gsym != wsym || gsim != wsim || gok != wok {
			t.Fatalf("probe %d: lookup (%q,%v,%v), want (%q,%v,%v)", i, gsym, gsim, gok, wsym, wsim, wok)
		}
	}
}

func mustOpen(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenWithoutWALIsNewServer(t *testing.T) {
	s := mustOpen(t, durableConfig(""))
	defer s.Close()
	if s.Stats().Durable {
		t.Fatal("in-memory server claims durability")
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on an in-memory server accepted")
	}
}

func TestDurableCleanShutdownRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	src := rng.New(2026)
	batches := make([]Batch, 30)
	for i := range batches {
		batches[i] = randomBatch(cfg, src)
	}

	a := mustOpen(t, cfg)
	if !a.Stats().Durable {
		t.Fatal("durable server claims no durability")
	}
	for i, b := range batches {
		if _, err := a.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyBatch(batches[0]); err == nil {
		t.Fatal("write after Close accepted")
	}

	// Reopen and compare against a sequential in-memory replay.
	b := mustOpen(t, cfg)
	defer b.Close()
	ref := mustOpen(t, durableConfig(""))
	for _, batch := range batches {
		if _, err := ref.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]*bitvec.Vector, 8)
	psrc := rng.New(55)
	for i := range probes {
		probes[i] = bitvec.Random(cfg.Dim, psrc)
	}
	requireSameState(t, b, ref, probes)
}

// TestCrashRecoveryProperty is the acceptance property: for a random op
// sequence, kill at any record boundary or mid-record → Recover yields a
// snapshot bit-identical to replaying the acknowledged prefix
// sequentially. The "kill" is byte-level: the log directory is copied
// as-is (no Close, no final sync) and its tail truncated at an arbitrary
// offset; recovery must then match the in-memory reference replay of
// exactly the records that survived intact — and never fewer than were
// already durable at the cut.
func TestCrashRecoveryProperty(t *testing.T) {
	const nBatches = 18
	for _, seed := range []uint64{1, 7, 42} {
		for _, ckptEvery := range []int{-1, 5} { // no checkpoints / frequent checkpoints
			t.Run(fmt.Sprintf("seed=%d/ckpt=%d", seed, ckptEvery), func(t *testing.T) {
				dir := t.TempDir()
				cfg := durableConfig(dir)
				cfg.WAL.CheckpointEvery = ckptEvery
				cfg.WAL.SegmentBytes = 2048 // several segments per run
				src := rng.New(seed)
				batches := make([]Batch, nBatches)
				for i := range batches {
					batches[i] = randomBatch(cfg, src)
				}

				s := mustOpen(t, cfg)
				for i, b := range batches {
					if _, err := s.ApplyBatch(b); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
				// Wait for any in-flight background checkpoint, then abandon
				// the server WITHOUT closing the log — the crash.
				s.ckptWG.Wait()

				// Knife positions: every segment boundary region and plenty of
				// mid-record cuts, driven by the same deterministic stream.
				for trial := 0; trial < 12; trial++ {
					crashDir := t.TempDir()
					copyDir(t, dir, crashDir)
					cutTail(t, crashDir, src)

					ccfg := durableConfig(crashDir)
					ccfg.WAL.CheckpointEvery = ckptEvery
					ccfg.WAL.SegmentBytes = 2048
					rec, err := Open(ccfg)
					if err != nil {
						t.Fatalf("trial %d: recovery failed: %v", trial, err)
					}
					v := int(rec.Snapshot().Version())
					if v > nBatches {
						t.Fatalf("trial %d: recovered version %d past %d appended", trial, v, nBatches)
					}
					ref := mustOpen(t, durableConfig(""))
					for _, b := range batches[:v] {
						if _, err := ref.ApplyBatch(b); err != nil {
							t.Fatal(err)
						}
					}
					probes := []*bitvec.Vector{bitvec.Random(cfg.Dim, rng.New(9)), bitvec.Random(cfg.Dim, rng.New(10))}
					requireSameState(t, rec, ref, probes)

					// The recovered server must keep taking writes durably.
					if _, err := rec.ApplyBatch(batches[0]); err != nil {
						t.Fatalf("trial %d: write after recovery: %v", trial, err)
					}
					if err := rec.Close(); err != nil {
						t.Fatalf("trial %d: close after recovery: %v", trial, err)
					}
				}
			})
		}
	}
}

// copyDir copies every regular file in src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// cutTail truncates the newest log segment at a position drawn from src:
// sometimes a record boundary survives, sometimes the knife lands
// mid-record — both must recover.
func cutTail(t *testing.T, dir string, src *rng.Stream) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return
	}
	// Newest segment sorts last (zero-padded names).
	path := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(src.Uint64() % uint64(fi.Size()+1))
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCompactionBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WAL.SegmentBytes = 1024
	cfg.WAL.CheckpointEvery = -1 // manual
	src := rng.New(77)

	s := mustOpen(t, cfg)
	batches := make([]Batch, 24)
	for i := range batches {
		batches[i] = randomBatch(cfg, src)
		if _, err := s.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		if i == 15 {
			v, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if v != 16 {
				t.Fatalf("checkpoint at version %d, want 16", v)
			}
		}
	}
	if st := s.Stats(); st.LastCheckpoint != 16 {
		t.Fatalf("Stats.LastCheckpoint = %d, want 16", st.LastCheckpoint)
	}
	// Compaction must have removed the fully-covered early segments.
	segsAfter := s.wal.Segments()
	for _, p := range segsAfter {
		if strings.HasSuffix(p, fmt.Sprintf("wal-%020d.seg", 1)) {
			t.Fatal("first segment survived a covering checkpoint")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = checkpoint + suffix must equal the full sequential replay.
	rec := mustOpen(t, cfg)
	defer rec.Close()
	ref := mustOpen(t, durableConfig(""))
	for _, b := range batches {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	probes := []*bitvec.Vector{bitvec.Random(cfg.Dim, rng.New(3))}
	requireSameState(t, rec, ref, probes)
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WAL.CheckpointEvery = -1
	src := rng.New(99)

	s := mustOpen(t, cfg)
	var batches []Batch
	for i := 0; i < 10; i++ {
		b := randomBatch(cfg, src)
		batches = append(batches, b)
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-rot the checkpoint. The default segment size keeps the whole log
	// in one (tail) segment, which compaction never removes, so recovery
	// must fall back to full replay and still be exact.
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.hckp"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery with corrupt checkpoint failed: %v", err)
	}
	defer rec.Close()
	ref := mustOpen(t, durableConfig(""))
	for _, b := range batches {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, rec, ref, []*bitvec.Vector{bitvec.Random(cfg.Dim, rng.New(4))})
	// The poisoned file must be preserved for forensics.
	if aside, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.corrupt")); len(aside) == 0 {
		t.Error("corrupt checkpoint silently discarded")
	}
}

// TestCorruptCheckpointKeepsEarlierEvidence: setting a corrupt checkpoint
// aside never overwrites the .corrupt file an earlier recovery left under
// the same name; the new evidence takes the first free .corrupt.N.
func TestCorruptCheckpointKeepsEarlierEvidence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WAL.CheckpointEvery = -1
	src := rng.New(61)

	s := mustOpen(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := s.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	version, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, checkpointName(version))
	earlier := []byte("evidence from an earlier recovery")
	if err := os.WriteFile(path+".corrupt", earlier, 0o644); err != nil {
		t.Fatal(err)
	}
	rotted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted[len(rotted)/2] ^= 0x40
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	// The whole log is one tail segment, so recovery falls back to a full
	// replay.
	rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery with a corrupt checkpoint failed: %v", err)
	}
	defer rec.Close()
	if v := rec.Snapshot().Version(); v != version {
		t.Fatalf("recovered version %d, want %d", v, version)
	}
	for name, want := range map[string][]byte{path + ".corrupt": earlier, path + ".corrupt.1": rotted} {
		got, err := os.ReadFile(name)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, %v; want the %d bytes set aside there", filepath.Base(name), len(got), err, len(want))
		}
	}
}

// TestMismatchedConfigPreservesCheckpoints: a restart with the wrong
// shape must abort, NOT set the checkpoints aside as corrupt — operator
// error may never destroy the recovery set.
func TestMismatchedConfigPreservesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	src := rng.New(13)
	s := mustOpen(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := s.ApplyBatch(randomBatch(cfg, src)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wrong := durableConfig(dir)
	wrong.Classes = 11
	if _, err := Open(wrong); err == nil {
		t.Fatal("mismatched config recovered successfully")
	}
	if aside, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.corrupt")); len(aside) != 0 {
		t.Fatalf("config mismatch destroyed checkpoints: %v", aside)
	}
	// The correctly-configured retry must still recover everything.
	rec := mustOpen(t, cfg)
	defer rec.Close()
	if v := rec.Snapshot().Version(); v != 5 {
		t.Fatalf("recovered version %d after config-mismatch detour, want 5", v)
	}
}

// TestFallbackCheckpointSurvivesCompaction: compaction may only drop log
// records below the OLDEST retained checkpoint, so when the newest
// checkpoint bit-rots, the older one plus the surviving suffix still
// recovers exactly.
func TestFallbackCheckpointSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WAL.CheckpointEvery = -1
	cfg.WAL.SegmentBytes = 1024 // many small segments so compaction bites
	src := rng.New(88)

	s := mustOpen(t, cfg)
	var batches []Batch
	apply := func(n int) {
		for i := 0; i < n; i++ {
			b := randomBatch(cfg, src)
			batches = append(batches, b)
			if _, err := s.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(8)
	if _, err := s.Checkpoint(); err != nil { // older checkpoint at v8
		t.Fatal(err)
	}
	apply(8)
	if _, err := s.Checkpoint(); err != nil { // newest at v16: compaction runs
		t.Fatal(err)
	}
	apply(4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot the NEWEST checkpoint; recovery must fall back to v8 and replay
	// records 9..20 — which compaction is required to have kept.
	raw, err := os.ReadFile(filepath.Join(dir, checkpointName(16)))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10
	if err := os.WriteFile(filepath.Join(dir, checkpointName(16)), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	defer rec.Close()
	ref := mustOpen(t, durableConfig(""))
	for _, b := range batches {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameState(t, rec, ref, []*bitvec.Vector{bitvec.Random(cfg.Dim, rng.New(6))})
	if aside, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.corrupt")); len(aside) != 1 {
		t.Errorf("rotted checkpoint not set aside: %v", aside)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cfg := durableConfig("")
	src := rng.New(321)
	for i := 0; i < 50; i++ {
		b := randomBatch(cfg, src)
		payload := encodeBatch(&b)
		var got Batch
		if err := decodeBatch(payload, cfg.Dim, &got); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(got.Train) != len(b.Train) || len(got.Items) != len(b.Items) {
			t.Fatalf("batch %d: shape mismatch after round trip", i)
		}
		for j := range b.Train {
			if got.Train[j].Class != b.Train[j].Class || !got.Train[j].HV.Equal(b.Train[j].HV) {
				t.Fatalf("batch %d: train %d mismatch", i, j)
			}
		}
		for j := range b.Items {
			if got.Items[j] != b.Items[j] {
				t.Fatalf("batch %d: item %d mismatch", i, j)
			}
		}
		// Truncations at every byte must error, never panic.
		for cut := 0; cut < len(payload); cut += 7 {
			var junk Batch
			if err := decodeBatch(payload[:cut], cfg.Dim, &junk); err == nil {
				t.Fatalf("batch %d: truncation at %d accepted", i, cut)
			}
		}
	}
}

func TestDurableRestoreRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, durableConfig(dir))
	defer s.Close()
	if err := s.Restore(bytes.NewReader(nil)); err == nil ||
		!strings.Contains(err.Error(), "durable") {
		t.Fatalf("Restore on a durable server: %v", err)
	}
}

// TestRemovedSlotsRefused: log records, snapshots and checkpoints keep the
// zero slots of the write kinds the server no longer applies (un-training,
// regression pairs, SDM writes, refinement). Input where one is nonzero is
// refused, and a durable directory holding it aborts Open with nothing set
// aside, so a correctly built server can still recover it.
func TestRemovedSlotsRefused(t *testing.T) {
	cfg := durableConfig("")
	b := Batch{Train: []Sample{{Class: 2, HV: bitvec.Random(cfg.Dim, rng.New(8))}}, Items: []string{"sym"}}
	payload := encodeBatch(&b)
	train := 4 + 4 + 8*len(b.Train[0].HV.Words()) // nTrain + one sample
	slots := map[string]int{
		"untrain":   train,
		"pairs":     train + 4,
		"writes":    len(payload) - 5,
		"hasRefine": len(payload) - 1,
	}
	for name, off := range slots {
		bad := bytes.Clone(payload)
		bad[off] = 1
		var got Batch
		if err := decodeBatch(bad, cfg.Dim, &got); err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("payload with nonzero %s slot: %v", name, err)
		}
	}

	// A replayed record with a nonzero slot aborts Open.
	dir := t.TempDir()
	s := mustOpen(t, durableConfig(dir))
	if _, err := s.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(payload)
	bad[slots["pairs"]] = 1
	if _, err := log.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durableConfig(dir)); err == nil || !strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("Open over a record with regression pairs: %v", err)
	}

	// Snapshot streams: the pairs count sits at byte 24, the flags at 32.
	src := mustServer(t, cfg)
	if _, err := src.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	stream := snapshotBytes(t, src.Snapshot())
	for _, off := range []int{24, 32} {
		bad := bytes.Clone(stream)
		bad[off] = 1
		if err := mustServer(t, cfg).Restore(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "does not host") {
			t.Errorf("snapshot with byte %d set: %v", off, err)
		}
	}

	// Checkpoints: the HCKP flags byte at 24 and the embedded snapshot's
	// pairs count and flags, with the CRC trailer made valid again.
	for _, off := range []int{24, 25 + 24, 25 + 32} {
		dir := t.TempDir()
		s := mustOpen(t, durableConfig(dir))
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		v, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, checkpointName(v))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body := raw[:len(raw)-4]
		body[off] = 1
		raw = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, ckptCRCTable))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(durableConfig(dir)); err == nil || !strings.Contains(err.Error(), "does not host") {
			t.Errorf("checkpoint with byte %d set: Open returned %v", off, err)
		}
		if aside, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.corrupt")); len(aside) != 0 {
			t.Errorf("checkpoint with byte %d set was set aside as corrupt: %v", off, aside)
		}
		if err := mustServer(t, cfg).InstallCheckpoint(t.Context(), raw); err == nil || !strings.Contains(err.Error(), "does not host") {
			t.Errorf("InstallCheckpoint with byte %d set: %v", off, err)
		}
	}
}

// TestSymbolLengthBound: every symbol ApplyBatch acknowledges must survive
// a checkpoint and a reopen. One longer than maxSymbolLen is refused with
// the version unchanged; one of exactly maxSymbolLen is checkpointed,
// reopened and found.
func TestSymbolLengthBound(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.WAL.CheckpointEvery = -1
	s := mustOpen(t, cfg)
	if _, err := s.ApplyBatch(Batch{Items: []string{strings.Repeat("x", maxSymbolLen+1)}}); err == nil {
		t.Fatal("symbol of maxSymbolLen+1 bytes accepted")
	}
	if v := s.Snapshot().Version(); v != 0 {
		t.Fatalf("refused batch moved the version to %d", v)
	}
	longest := strings.Repeat("y", maxSymbolLen)
	if _, err := s.ApplyBatch(Batch{Items: []string{longest}}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Checkpoint(); err != nil || v != 1 {
		t.Fatalf("Checkpoint = %d, %v", v, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening after a checkpoint holding a %d-byte symbol: %v", maxSymbolLen, err)
	}
	defer r.Close()
	if _, ok := r.Snapshot().Item(longest); !ok {
		t.Fatal("longest symbol lost across checkpoint and reopen")
	}
}
