package sdm

import (
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// indexedPair builds an exact memory and an index-configured twin with
// identical addresses and contents.
func indexedPair(t *testing.T, cfg Config, ixCfg index.Config) (exact, indexed *Memory) {
	t.Helper()
	exact = New(cfg)
	withIx := cfg
	withIx.Index = &ixCfg
	indexed = New(withIx)
	if indexed.addresses.Indexed() == 0 {
		t.Fatalf("index did not engage (locations=%d, MinSize=%d)", cfg.Locations, ixCfg.MinSize)
	}
	return exact, indexed
}

func TestIndexedActivationTightRadiusMatchesExact(t *testing.T) {
	// A tight radius (well below d/2) is the regime where the signature
	// screen actually prunes; activations must still match the exact scan
	// on every probe here (the slack makes misses vanishingly rare, and
	// this fixture is deterministic — a miss would be a hard failure).
	const d = 1024
	cfg := Config{Dim: d, Locations: 600, Radius: d / 4, Seed: 3}
	exact, indexed := indexedPair(t, cfg, index.Config{MinSize: 100})
	src := rng.Sub(41, "tight-probes")
	activations := 0
	for i := 0; i < 200; i++ {
		var probe *bitvec.Vector
		if i%2 == 0 {
			probe = bitvec.Random(d, src)
		} else {
			// Near a hard location, inside the radius.
			probe = exact.addresses.Vectors()[i%exact.addresses.Len()].Clone()
			for f := 0; f < d/8; f++ {
				probe.FlipBit(int(src.Uint64() % uint64(d)))
			}
		}
		want := exact.activated(probe)
		got := indexed.activated(probe)
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d activations, exact %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("probe %d: activation[%d] = %d, exact %d", i, j, got[j], want[j])
			}
		}
		activations += len(want)
	}
	if activations == 0 {
		t.Fatal("fixture never activated a location")
	}
}

func TestIndexedActivationSparseRegimeFallsBackExact(t *testing.T) {
	// The classic sparse operating point: radius just below d/2, where a
	// bit sample cannot separate in-radius from quasi-orthogonal. The
	// index must fall back to the exact scan, making results identical by
	// construction.
	cfg := DefaultConfig(2048)
	cfg.Locations = 500
	exact, indexed := indexedPair(t, cfg, index.Config{MinSize: 100})
	src := rng.Sub(43, "sparse-probes")
	for i := 0; i < 50; i++ {
		probe := bitvec.Random(cfg.Dim, src)
		want := exact.ActivationCount(probe)
		if got := indexed.ActivationCount(probe); got != want {
			t.Fatalf("probe %d: %d activations, exact %d", i, got, want)
		}
	}
}

func TestIndexedReadWriteRoundTrip(t *testing.T) {
	const d = 1024
	ixCfg := index.Config{MinSize: 100}
	cfg := Config{Dim: d, Locations: 800, Radius: d/4 + 80, Seed: 5, Index: &ixCfg}
	m := New(cfg)
	src := rng.Sub(47, "rw")
	// Anchor the stored item near a hard location: random addresses sit at
	// distance ~d/2 from everything, so a sub-d/2 radius (the screen
	// regime this test exercises) only ever activates locations the data
	// is actually close to.
	stored := m.addresses.Vectors()[0].Clone()
	for f := 0; f < d/16; f++ {
		stored.FlipBit(int(src.Uint64() % uint64(d)))
	}
	// Auto-associative writes from noisy copies of the item.
	for i := 0; i < 9; i++ {
		a := stored.Clone()
		for f := 0; f < d/16; f++ {
			a.FlipBit(int(src.Uint64() % uint64(d)))
		}
		m.Write(a, stored)
	}
	cue := stored.Clone()
	for f := 0; f < d/16; f++ {
		cue.FlipBit(int(src.Uint64() % uint64(d)))
	}
	word, _, ok := m.ReadIterative(cue, 10)
	if !ok {
		t.Fatal("indexed read activated no locations")
	}
	if word.Distance(stored) > 0.05 {
		t.Fatalf("recalled word at distance %v from stored item", word.Distance(stored))
	}
}
