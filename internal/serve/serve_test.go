package serve

import (
	"bytes"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/embed"
	"hdcirc/internal/hashring"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
)

const (
	testDim     = 512
	testClasses = 10
)

func testConfig(shards int) Config {
	return Config{Dim: testDim, Classes: testClasses, Shards: shards, Workers: 4, Seed: 77}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceClassifier builds the unsharded sequential model the snapshot
// contract promises bit-identity with: same seed-derived per-class tie
// vectors, classes 0..k-1 in order.
func referenceClassifier(cfg Config) *model.Classifier {
	c := model.NewClassifier(cfg.Classes, cfg.Dim, cfg.Seed)
	tvs := make([]*bitvec.Vector, cfg.Classes)
	for i := range tvs {
		tvs[i] = classTieVector(cfg.Seed, cfg.Dim, i)
	}
	c.SetTieVectors(tvs)
	return c
}

func randomSamples(n int, seed uint64) []Sample {
	src := rng.New(seed)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Class: src.Intn(testClasses), HV: bitvec.Random(testDim, src)}
	}
	return out
}

func TestNewServerValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, Classes: 3},
		{Dim: -5, Classes: 3},
		{Dim: 64, Classes: 0},
		{Dim: 64, Classes: 2, Shards: 4, RingPositions: 2},
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSnapshotMatchesSequentialModel trains through ApplyBatch and checks
// every published version is bit-identical to the sequential reference
// model replaying the same batches — for 1 shard and for many, so the
// sharded routing provably changes nothing about results.
func TestSnapshotMatchesSequentialModel(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		cfg := testConfig(shards)
		s := mustServer(t, cfg)
		ref := referenceClassifier(cfg)
		queries := randomSamples(32, 99)

		for b := 0; b < 6; b++ {
			batchSamples := randomSamples(20, uint64(1000+b))
			snap, err := s.ApplyBatch(Batch{Train: batchSamples})
			if err != nil {
				t.Fatal(err)
			}
			if snap.Version() != uint64(b+1) {
				t.Fatalf("shards=%d: version %d after batch %d", shards, snap.Version(), b)
			}
			for _, smp := range batchSamples {
				ref.Add(smp.Class, smp.HV)
			}
			ref.Finalize()
			for c := 0; c < cfg.Classes; c++ {
				if !snap.ClassVector(c).Equal(ref.ClassVector(c)) {
					t.Fatalf("shards=%d v%d: prototype %d differs from sequential model", shards, snap.Version(), c)
				}
			}
			for qi, q := range queries {
				gotC, gotD := snap.Predict(q.HV)
				wantC, wantD := ref.Predict(q.HV)
				if gotC != wantC || gotD != wantD {
					t.Fatalf("shards=%d v%d query %d: got (%d,%v), sequential (%d,%v)",
						shards, snap.Version(), qi, gotC, gotD, wantC, wantD)
				}
				scores := snap.Scores(q.HV)
				refScores := ref.Scores(q.HV)
				for c := range scores {
					if scores[c] != refScores[c] {
						t.Fatalf("shards=%d v%d query %d: score %d differs", shards, snap.Version(), qi, c)
					}
				}
			}
		}
	}
}

// TestItemsAndLookup checks membership churn: interned symbols route to
// shards, vectors match the seed derivation, and cleanup lookup recovers a
// noisy member.
func TestItemsAndLookup(t *testing.T) {
	cfg := testConfig(4)
	s := mustServer(t, cfg)
	syms := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	snap, err := s.ApplyBatch(Batch{Items: syms})
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumItems() != len(syms) {
		t.Fatalf("items = %d, want %d", snap.NumItems(), len(syms))
	}
	// Re-interning is a no-op.
	snap, err = s.ApplyBatch(Batch{Items: []string{"beta", "zeta"}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumItems() != len(syms)+1 {
		t.Fatalf("items = %d after churn, want %d", snap.NumItems(), len(syms)+1)
	}
	for _, sym := range syms {
		hv, ok := snap.Item(sym)
		if !ok {
			t.Fatalf("symbol %q lost", sym)
		}
		want := embed.NewItemMemory(cfg.Dim, cfg.Seed).Get(sym)
		if !hv.Equal(want) {
			t.Fatalf("symbol %q vector differs from seed derivation", sym)
		}
		// Corrupt 10% of bits; cleanup must still find it.
		noisy := hv.Clone()
		src := rng.New(123)
		for i := 0; i < cfg.Dim/10; i++ {
			noisy.FlipBit(src.Intn(cfg.Dim))
		}
		got, sim, ok := snap.Lookup(noisy)
		if !ok || got != sym {
			t.Fatalf("lookup(%q+noise) = %q, %v", sym, got, ok)
		}
		if sim < 0.7 {
			t.Errorf("lookup similarity %v suspiciously low", sim)
		}
	}
	if _, ok := snap.Item("missing"); ok {
		t.Error("phantom item")
	}
}

// TestApplyBatchValidation checks a rejected batch mutates nothing.
func TestApplyBatchValidation(t *testing.T) {
	s := mustServer(t, testConfig(2))
	good := randomSamples(10, 21)
	before, err := s.ApplyBatch(Batch{Train: good})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	bad := []Batch{
		{Train: []Sample{{Class: testClasses, HV: bitvec.Random(testDim, src)}}},
		{Train: []Sample{{Class: -1, HV: bitvec.Random(testDim, src)}}},
		{Train: []Sample{{Class: 0, HV: bitvec.Random(64, src)}}},
		{Train: []Sample{{Class: 0, HV: nil}}},
	}
	for i, b := range bad {
		if _, err := s.ApplyBatch(b); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	after := s.Snapshot()
	if after.Version() != before.Version() {
		t.Fatalf("rejected batches moved the version: %d → %d", before.Version(), after.Version())
	}
	for c := 0; c < testClasses; c++ {
		if !after.ClassVector(c).Equal(before.ClassVector(c)) {
			t.Fatalf("rejected batches mutated prototype %d", c)
		}
	}
}

// TestRouteAndStats sanity-checks the routing and stats surfaces.
func TestRouteAndStats(t *testing.T) {
	s := mustServer(t, testConfig(4))
	shard, member, slot := s.Route("some-key")
	if shard < 0 || shard >= 4 {
		t.Errorf("route shard = %d", shard)
	}
	if member != hashring.ShardMember(shard) {
		t.Errorf("member %q for shard %d", member, shard)
	}
	if slot < 0 || slot >= s.Config().RingPositions {
		t.Errorf("slot = %d", slot)
	}
	sh2, _, _ := s.Route("some-key")
	if sh2 != shard {
		t.Error("routing not deterministic")
	}

	if _, err := s.ApplyBatch(Batch{Train: randomSamples(8, 31), Items: []string{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	qs := randomSamples(5, 32)
	for _, q := range qs {
		s.Predict(q.HV)
	}
	st := s.Stats()
	if st.Version != 1 || st.Samples != 8 || st.Items != 2 || st.Shards != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.ReadsServed < 5 {
		t.Errorf("reads served = %d", st.ReadsServed)
	}
}

// TestPredictBatchMatchesSequential checks the pooled batch predict is
// bit-identical to one-by-one prediction on the same snapshot.
func TestPredictBatchMatchesSequential(t *testing.T) {
	s := mustServer(t, testConfig(3))
	if _, err := s.ApplyBatch(Batch{Train: randomSamples(40, 41)}); err != nil {
		t.Fatal(err)
	}
	qs := randomSamples(64, 42)
	hvs := make([]*bitvec.Vector, len(qs))
	for i, q := range qs {
		hvs[i] = q.HV
	}
	classes, dists := s.PredictBatch(hvs)
	snap := s.Snapshot()
	for i, hv := range hvs {
		wc, wd := snap.Predict(hv)
		if classes[i] != wc || dists[i] != wd {
			t.Fatalf("batched predict %d = (%d,%v), sequential (%d,%v)", i, classes[i], dists[i], wc, wd)
		}
	}
}

// TestPersistRoundTrip saves a trained server's snapshot and warm-starts a
// fresh server from it: every read surface must be bit-identical.
func TestPersistRoundTrip(t *testing.T) {
	cfg := testConfig(3)
	a := mustServer(t, cfg)
	var b Batch
	b.Train = randomSamples(50, 51)
	b.Items = []string{"one", "two", "three"}
	snapA, err := a.ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := snapA.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := mustServer(t, cfg)
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	snapB := fresh.Snapshot()
	if snapB.Version() != snapA.Version() || snapB.Samples() != snapA.Samples() || snapB.NumItems() != snapA.NumItems() {
		t.Fatalf("restored counters differ: %d/%d/%d vs %d/%d/%d",
			snapB.Version(), snapB.Samples(), snapB.NumItems(),
			snapA.Version(), snapA.Samples(), snapA.NumItems())
	}
	for c := 0; c < cfg.Classes; c++ {
		if !snapB.ClassVector(c).Equal(snapA.ClassVector(c)) {
			t.Fatalf("restored prototype %d differs", c)
		}
	}
	for qi, q := range randomSamples(16, 53) {
		ac, ad := snapA.Predict(q.HV)
		bc, bd := snapB.Predict(q.HV)
		if ac != bc || ad != bd {
			t.Fatalf("query %d: restored predict differs", qi)
		}
		as, _, aok := snapA.Lookup(q.HV)
		bs, _, bok := snapB.Lookup(q.HV)
		if as != bs || aok != bok {
			t.Fatalf("query %d: restored lookup differs", qi)
		}
	}

	// Restore refuses a non-fresh server and foreign bytes.
	if err := a.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Restore into a written server accepted")
	}
	fresh2 := mustServer(t, cfg)
	if err := fresh2.Restore(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("Restore accepted garbage")
	}
	// Shape mismatch: different class count.
	other := testConfig(2)
	other.Classes = testClasses + 1
	fresh3 := mustServer(t, other)
	if err := fresh3.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Restore accepted mismatched class count")
	}
}

// TestWarmStartContinuedTraining checks a warm-started server keeps
// accepting writes and stays consistent with its own sequential reference
// going forward.
func TestWarmStartContinuedTraining(t *testing.T) {
	cfg := testConfig(2)
	a := mustServer(t, cfg)
	if _, err := a.ApplyBatch(Batch{Train: randomSamples(30, 61)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := mustServer(t, cfg)
	if err := loaded.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	more := randomSamples(20, 62)
	snap, err := loaded.ApplyBatch(Batch{Train: more})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 2 {
		t.Errorf("version after warm-start write = %d, want 2", snap.Version())
	}
	if snap.Samples() != 50 {
		t.Errorf("samples = %d, want 50", snap.Samples())
	}
	// Predictions still well-formed over every class.
	for _, q := range more {
		c, dist := snap.Predict(q.HV)
		if c < 0 || c >= cfg.Classes || dist < 0 || dist > 1 {
			t.Fatalf("degenerate prediction (%d, %v) after warm start", c, dist)
		}
	}
}

// TestShardMemberName checks the member names the serving ring places,
// which the cluster ring shares.
func TestShardMemberName(t *testing.T) {
	if hashring.ShardMember(3) != "shard/3" {
		t.Errorf("ShardMember(3) = %q", hashring.ShardMember(3))
	}
	if hashring.ShardMember(0) != "shard/0" {
		t.Error("ShardMember(0)")
	}
}
