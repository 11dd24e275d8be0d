package hdcirc

import (
	"bytes"
	"testing"
)

// TestFacadeServer exercises the serving layer end to end through the
// public API: build, train through ApplyBatch, read through snapshots,
// persist, warm-start.
func TestFacadeServer(t *testing.T) {
	const (
		d = 512
		k = 6
	)
	srv, err := NewServer(ServerConfig{Dim: d, Classes: k, Shards: 2, Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	src := NewStream(11)
	var batch ServerBatch
	queries := make([]*Vector, 0, 24)
	for i := 0; i < 24; i++ {
		hv := RandomVector(d, src)
		batch.Train = append(batch.Train, ServerSample{Class: i % k, HV: hv})
		queries = append(queries, hv)
	}
	batch.Items = []string{"red", "green", "blue"}
	snap, err := srv.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 1 || snap.Samples() != 24 || snap.NumItems() != 3 {
		t.Fatalf("snapshot state: v%d samples=%d items=%d", snap.Version(), snap.Samples(), snap.NumItems())
	}

	classes, dists := srv.PredictBatch(queries)
	for i := range queries {
		c, dist := snap.Predict(queries[i])
		if classes[i] != c || dists[i] != dist {
			t.Fatalf("batched predict %d diverged from snapshot predict", i)
		}
	}

	greenHV, ok := snap.Item("green")
	if !ok {
		t.Fatal("item green not interned")
	}
	member, sim, ok := srv.Lookup(greenHV)
	if !ok || member != "green" || sim != 1 {
		t.Fatalf("lookup(green) = %q %v %v", member, sim, ok)
	}

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewServer(ServerConfig{Dim: d, Classes: k, Shards: 2, Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		ac, _ := snap.Predict(q)
		bc, _ := loaded.Snapshot().Predict(q)
		if ac != bc {
			t.Fatalf("warm-started predict %d differs", i)
		}
	}

	stats := srv.Stats()
	if stats.Shards != 2 || stats.Classes != k || stats.Samples != 24 {
		t.Errorf("stats = %+v", stats)
	}
}
