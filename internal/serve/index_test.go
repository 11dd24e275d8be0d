package serve

import (
	"fmt"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// internSymbols pushes n symbols through one batch and returns the
// published snapshot.
func internSymbols(t *testing.T, s *Server, n int) *Snapshot {
	t.Helper()
	var b Batch
	for i := 0; i < n; i++ {
		b.Items = append(b.Items, fmt.Sprintf("sym/%d", i))
	}
	snap, err := s.ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSnapshotLookupIndexedMatchesExactConfig(t *testing.T) {
	const d, n = 1024, 1200
	mk := func(ix *index.Config) *Server {
		s, err := NewServer(Config{Dim: d, Classes: 4, Shards: 3, Seed: 21, Index: ix})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Exact-mode index (candidates cover any shard) vs indexing disabled:
	// published lookups must agree symbol-for-symbol and bit-for-bit.
	indexed := mk(&index.Config{MinSize: 50, Candidates: n})
	exact := mk(&index.Config{Disabled: true})
	si := internSymbols(t, indexed, n)
	se := internSymbols(t, exact, n)
	engaged := false
	for i := range si.shards {
		if si.shards[i].items.Indexed() != 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Fatal("no shard engaged the item index")
	}
	src := rng.Sub(3, "serve-lookup")
	for i := 0; i < 80; i++ {
		var q *bitvec.Vector
		if i%2 == 0 {
			q = bitvec.Random(d, src)
		} else {
			hv, ok := se.Item(fmt.Sprintf("sym/%d", i*7%n))
			if !ok {
				t.Fatal("seeded symbol missing")
			}
			q = hv.Clone()
			for f := 0; f < d/4; f++ {
				q.FlipBit(int(src.Uint64() % uint64(d)))
			}
		}
		ws, wsim, wok := se.Lookup(q)
		gs, gsim, gok := si.Lookup(q)
		if gs != ws || gsim != wsim || gok != wok {
			t.Fatalf("query %d: indexed (%q,%v,%v), exact (%q,%v,%v)", i, gs, gsim, gok, ws, wsim, wok)
		}
	}
}

func TestSnapshotLookupIndexedRecallOnNoisyProbes(t *testing.T) {
	const d, n = 2048, 4000
	s, err := NewServer(Config{Dim: d, Classes: 2, Shards: 2, Seed: 8,
		Index: &index.Config{MinSize: 500}})
	if err != nil {
		t.Fatal(err)
	}
	snap := internSymbols(t, s, n)
	src := rng.Sub(12, "serve-recall")
	hits := 0
	const queries = 150
	for i := 0; i < queries; i++ {
		sym := fmt.Sprintf("sym/%d", (i*53)%n)
		hv, ok := snap.Item(sym)
		if !ok {
			t.Fatalf("symbol %s missing", sym)
		}
		q := hv.Clone()
		for b := 0; b < d; b++ {
			if src.Float64() < 0.3 {
				q.FlipBit(b)
			}
		}
		if got, _, _ := snap.Lookup(q); got == sym {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.99 {
		t.Fatalf("snapshot indexed recall %.4f below 0.99 (%d/%d)", recall, hits, queries)
	}
}

func TestSnapshotIndexReusedAcrossCleanBatches(t *testing.T) {
	const d = 512
	s, err := NewServer(Config{Dim: d, Classes: 4, Shards: 2, Seed: 5,
		Index: &index.Config{MinSize: 50, Candidates: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := internSymbols(t, s, 200)
	// A classifier-only batch must not rebuild (or drop) the item indexes.
	hv := bitvec.Random(d, rng.Sub(9, "train"))
	snap2, err := s.ApplyBatch(Batch{Train: []Sample{{Class: 1, HV: hv}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap1.shards {
		if snap2.shards[i].items != snap1.shards[i].items {
			t.Fatalf("shard %d item index not shared across an item-clean batch", i)
		}
	}
	// A small item batch keeps every index: the dirtied shard carries its
	// previous index over and serves the new symbol from the exact tail
	// scan (no O(items) rebuild on the write path).
	snap3, err := s.ApplyBatch(Batch{Items: []string{"late/0"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap3.shards {
		if snap3.shards[i].items.Indexed() != snap2.shards[i].items.Indexed() {
			t.Fatalf("shard %d index rebuilt for a one-symbol batch", i)
		}
	}
	hv2, ok := snap3.Item("late/0")
	if !ok {
		t.Fatal("late symbol missing from snapshot")
	}
	if sym, _, _ := snap3.Lookup(hv2); sym != "late/0" {
		t.Fatalf("tail lookup got %q, want late/0", sym)
	}
	// Once the un-indexed tail outgrows the rebuild bound, exactly the
	// dirtied shards re-index and cover the full collection again.
	var big Batch
	for i := 0; i < 200; i++ {
		big.Items = append(big.Items, fmt.Sprintf("bulk/%d", i))
	}
	snap4, err := s.ApplyBatch(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap4.shards {
		v := &snap4.shards[i]
		if v.items.Indexed() == 0 {
			t.Fatalf("shard %d lost its index", i)
		}
		// 64 is the rebuild bound behind any index of fewer than 512
		// vectors, and no shard here holds that many.
		if tail := v.items.Len() - v.items.Indexed(); tail > 64 {
			t.Fatalf("shard %d tail %d exceeds rebuild bound", i, tail)
		}
	}
}

func TestSnapshotPredictIndexedExactModeMatchesLinear(t *testing.T) {
	// Enough classes that shards cross the index threshold; exact-mode
	// candidates keep prediction bit-identical to the disabled config.
	const d, k = 512, 600
	mk := func(ix *index.Config) *Snapshot {
		s, err := NewServer(Config{Dim: d, Classes: k, Shards: 3, Seed: 31, Index: ix})
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		src := rng.Sub(77, "train")
		for c := 0; c < k; c++ {
			b.Train = append(b.Train, Sample{Class: c, HV: bitvec.Random(d, src)})
		}
		snap, err := s.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	si := mk(&index.Config{MinSize: 100, Candidates: k})
	se := mk(&index.Config{Disabled: true})
	engaged := false
	for i := range si.shards {
		if si.shards[i].protos.Indexed() != 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Fatal("no shard engaged the prototype index")
	}
	src := rng.Sub(6, "serve-predict")
	for i := 0; i < 100; i++ {
		q := bitvec.Random(d, src)
		wc, wd := se.Predict(q)
		gc, gd := si.Predict(q)
		if gc != wc || gd != wd {
			t.Fatalf("query %d: indexed (%d,%v), linear (%d,%v)", i, gc, gd, wc, wd)
		}
	}
}

func TestShardViewSharesClassifierPrototypes(t *testing.T) {
	// Each shard's prototypes are indexed once: the snapshot publishes the
	// shard classifier's own Set, built under the server's Index config.
	const d, k = 256, 600
	s, err := NewServer(Config{Dim: d, Classes: k, Shards: 3, Seed: 4,
		Index: &index.Config{MinSize: 100, Candidates: k}})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	src := rng.Sub(5, "train")
	for c := 0; c < k; c++ {
		b.Train = append(b.Train, Sample{Class: c, HV: bitvec.Random(d, src)})
	}
	snap, err := s.ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range s.shards {
		set := snap.shards[i].protos
		if set != st.cls.Prototypes() {
			t.Fatalf("shard %d publishes a prototype set that is not its classifier's", i)
		}
		if set.Indexed() != len(st.classes) {
			t.Fatalf("shard %d: %d of %d prototypes indexed under the server config", i, set.Indexed(), len(st.classes))
		}
	}
}
