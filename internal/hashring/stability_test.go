package hashring

import (
	"fmt"
	"testing"
)

// TestRingStabilityGoldens pins the ring's observable routing behavior
// for a fixed geometry (8 positions, d=1024, seed 42, members shard/0..2
// added in order). Every stored key in a sharded tier lives where this
// function puts it, so the FNV key hash, the circular-set construction,
// the seed derivation, and the even-spreading placement strategy are all
// compatibility surfaces: a change to any of them silently strands every
// stored key behind a different shard. If this test fails, the change is
// a deliberate resharding event, not a refactor — it needs a migration
// story, not an updated golden.
func TestRingStabilityGoldens(t *testing.T) {
	r, err := New(8, 1024, 42)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := []int{4, 0, 2} // placement of shard/0, shard/1, shard/2 in order
	for i, want := range wantSlots {
		slot, err := r.Add(fmt.Sprintf("shard/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if slot != want {
			t.Fatalf("shard/%d placed at slot %d, golden %d", i, slot, want)
		}
	}

	// FNV-1a key→slot goldens.
	keySlots := map[string]int{
		"class/0":    0,
		"class/1":    3,
		"class/2":    6,
		"class/3":    1,
		"item/alpha": 5,
		"item/bravo": 5,
		"item/zulu":  5,
	}
	for key, want := range keySlots {
		if got := r.KeySlot(key); got != want {
			t.Errorf("KeySlot(%q) = %d, golden %d", key, got, want)
		}
	}

	// End-to-end key→member goldens through the hypervector lookup.
	lookups := map[string]string{
		"class/0":    "shard/1",
		"class/1":    "shard/2",
		"class/2":    "shard/0",
		"class/3":    "shard/1",
		"class/4":    "shard/0",
		"class/5":    "shard/1",
		"item/alpha": "shard/0",
		"item/bravo": "shard/0",
		"item/zulu":  "shard/0",
	}
	for key, want := range lookups {
		got, ok := r.Lookup(key)
		if !ok || got != want {
			t.Errorf("Lookup(%q) = %q (ok=%v), golden %q", key, got, ok, want)
		}
	}

	// Shards places the same members in the same order on the same ring,
	// so it routes every key to the shard of its golden member.
	s, err := NewShards(8, 1024, 42, len(wantSlots))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range lookups {
		if got := ShardMember(s.ShardForKey(key)); got != want {
			t.Errorf("Shards routes %q to %s, golden %s", key, got, want)
		}
	}
}

// TestHashGoldens pins the raw FNV-1a values the slot math divides — the
// lowest-level stability anchor, independent of ring geometry.
func TestHashGoldens(t *testing.T) {
	want := map[string]uint64{
		"":        14695981039346656037,
		"class/0": 2240978272474868320,
		"item/a":  7418439121936504926,
		"shard/0": 10006329267557691540,
	}
	for key, h := range want {
		if got := hash(key); got != h {
			t.Errorf("hash(%q) = %d, golden %d", key, got, h)
		}
	}
}
