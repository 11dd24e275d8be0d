package serve

// Byte pins for everything a durable server writes. A fixed Train+Items
// sequence on a durable 3-shard server must produce the same log segment,
// checkpoint file and snapshot stream, live and after a reopen, so a change
// to the write path cannot silently alter a file format that existing
// durability directories, followers and snapshot consumers depend on.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

// pinnedBatches draws the pinned write sequence: 40 batches, each with
// 1+u%4 Train samples (class u%7) and then u%3 item symbols.
func pinnedBatches(cfg Config) []Batch {
	src := rng.New(99)
	batches := make([]Batch, 40)
	for i := range batches {
		b := &batches[i]
		for j, n := 0, 1+int(src.Uint64()%4); j < n; j++ {
			class := int(src.Uint64() % uint64(cfg.Classes))
			b.Train = append(b.Train, Sample{Class: class, HV: bitvec.Random(cfg.Dim, src)})
		}
		for j, n := 0, int(src.Uint64()%3); j < n; j++ {
			b.Items = append(b.Items, fmt.Sprintf("item/%d", src.Uint64()%50))
		}
	}
	return batches
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestDurableBytesPinned(t *testing.T) {
	const (
		wantSnapshot = "c060395037c5b41f702d8937a69a8c7e9871a0335a901f275000342555f7c141"
		wantCkpt     = "ae9addc2e095add99e78bb60a9a1736b2238932f4bb8dcef023da77b8384b971"
		wantCkptLen  = 11741
		wantSeg      = "78e9765fcb34598ffc6665924946a8269eb093decaddc9062f4caee9e5b9fae8"
		wantSegLen   = 6709
	)
	dir := t.TempDir()
	cfg := Config{Dim: 384, Classes: 7, Shards: 3, Workers: 2, Seed: 1234, WAL: &WALConfig{Dir: dir, CheckpointEvery: -1}}
	s := mustOpen(t, cfg)
	for i, b := range pinnedBatches(cfg) {
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 25 {
			if v, err := s.Checkpoint(); err != nil || v != 26 {
				t.Fatalf("Checkpoint = %d, %v; want 26", v, err)
			}
		}
	}
	live := sha256Hex(snapshotBytes(t, s.Snapshot()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	files := map[string]struct {
		want string
		size int
	}{
		checkpointName(26):              {wantCkpt, wantCkptLen},
		fmt.Sprintf("wal-%020d.seg", 1): {wantSeg, wantSegLen},
	}
	for name, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got := sha256Hex(raw)
		t.Logf("%s: %d B sha256 %s", name, len(raw), got)
		if len(raw) != f.size || got != f.want {
			t.Errorf("%s: %d B sha256 %s, want %d B %s", name, len(raw), got, f.size, f.want)
		}
	}

	r := mustOpen(t, cfg)
	defer r.Close()
	reopened := sha256Hex(snapshotBytes(t, r.Snapshot()))
	t.Logf("snapshot sha256 %s (reopened %s)", live, reopened)
	for what, got := range map[string]string{"live": live, "reopened": reopened} {
		if got != wantSnapshot {
			t.Errorf("%s snapshot sha256 %s, want %s", what, got, wantSnapshot)
		}
	}
}
