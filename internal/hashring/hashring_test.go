package hashring

import (
	"fmt"
	"testing"

	"hdcirc/internal/rng"
)

func TestNewRoundsToEven(t *testing.T) {
	r := mustNew(t, 9, 1024, 1)
	if r.Positions() != 10 {
		t.Errorf("positions = %d, want 10", r.Positions())
	}
	if _, err := New(1, 64, 1); err == nil {
		t.Error("m<2 accepted")
	}
	if _, err := New(8, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
}

func mustNew(t *testing.T, m, d int, seed uint64) *Ring {
	t.Helper()
	r, err := New(m, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAddFullRingErrors(t *testing.T) {
	r := mustNew(t, 2, 256, 11)
	for i := 0; i < r.Positions(); i++ {
		if _, err := r.Add(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Add("overflow"); err == nil {
		t.Fatal("full ring accepted another member")
	}
	// The failed join must not corrupt the ring: every key still routes.
	if got := len(r.Members()); got != r.Positions() {
		t.Errorf("members = %d after failed Add, want %d", got, r.Positions())
	}
	if _, ok := r.Lookup("some-key"); !ok {
		t.Error("lookup failed after rejected Add")
	}
}

func TestAddRemoveMembers(t *testing.T) {
	r := mustNew(t, 16, 1024, 2)
	if _, err := r.Add("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("a"); err == nil {
		t.Error("duplicate Add accepted")
	}
	if _, err := r.Add("b"); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Members()); got != 2 {
		t.Errorf("members = %d", got)
	}
	if err := r.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("a"); err == nil {
		t.Error("double Remove accepted")
	}
	if got := r.Members(); len(got) != 1 || got[0] != "b" {
		t.Errorf("members after removal: %v", got)
	}
}

func TestAddSpreadsMembers(t *testing.T) {
	r := mustNew(t, 16, 1024, 3)
	slots := map[string]int{}
	for _, n := range []string{"a", "b", "c", "d"} {
		s, err := r.Add(n)
		if err != nil {
			t.Fatal(err)
		}
		slots[n] = s
	}
	// Four members on 16 slots spread greedily: minimum pairwise circular
	// distance must be at least 16/4/2 = 2.
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if d := circDist(slots[names[i]], slots[names[j]], 16); d < 2 {
				t.Errorf("members %s,%s too close: %d", names[i], names[j], d)
			}
		}
	}
}

func TestLookupEmpty(t *testing.T) {
	r := mustNew(t, 8, 512, 4)
	if _, ok := r.Lookup("key"); ok {
		t.Error("lookup on empty ring returned ok")
	}
}

func TestLookupReturnsNearestMember(t *testing.T) {
	r := mustNew(t, 32, 10000, 5)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	// Every key must land on the member whose slot is circularly nearest
	// to the key's slot (uncorrupted vectors ⇒ similarity order = slot
	// order, up to hypervector noise on near-ties).
	agree := 0
	const keys = 200
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, ok := r.Lookup(key)
		if !ok {
			t.Fatal("lookup failed")
		}
		ks := r.KeySlot(key)
		best, bestD := "", 1<<30
		for _, name := range r.Members() {
			slot := 0
			for s, n := range r.slots {
				if n == name {
					slot = s
				}
			}
			if d := circDist(ks, slot, 32); d < bestD {
				bestD, best = d, name
			}
		}
		if got == best {
			agree++
		}
	}
	if agree < keys*9/10 {
		t.Errorf("only %d/%d lookups matched the circularly nearest member", agree, keys)
	}
}

func TestLookupDeterministic(t *testing.T) {
	r := mustNew(t, 16, 2048, 6)
	for _, n := range []string{"x", "y", "z"} {
		if _, err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := r.Lookup("some-key")
	b, _ := r.Lookup("some-key")
	if a != b {
		t.Error("lookup not deterministic")
	}
}

func TestConsistentHashingMinimalRemap(t *testing.T) {
	// Removing one of four members must remap (essentially) only the keys
	// it served — the defining consistent-hashing property.
	build := func() *Ring {
		r := mustNew(t, 64, 4096, 7)
		for _, n := range []string{"a", "b", "c", "d"} {
			if _, err := r.Add(n); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	r := build()
	const keys = 300
	before := make([]string, keys)
	for i := range before {
		before[i], _ = r.Lookup(fmt.Sprintf("key-%d", i))
	}
	if err := r.Remove("c"); err != nil {
		t.Fatal(err)
	}
	movedNonC := 0
	for i := range before {
		after, _ := r.Lookup(fmt.Sprintf("key-%d", i))
		if before[i] != "c" && after != before[i] {
			movedNonC++
		}
		if after == "c" {
			t.Fatal("removed member still serving keys")
		}
	}
	if movedNonC > keys/20 {
		t.Errorf("%d/%d keys of surviving members remapped; want ≈ 0", movedNonC, keys)
	}
}

func TestCorruptionRobustness(t *testing.T) {
	// HD hashing's selling point: lookups survive significant bit
	// corruption of the member vectors.
	r := mustNew(t, 16, 10000, 8)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 200
	clean := make([]string, keys)
	for i := range clean {
		clean[i], _ = r.Lookup(fmt.Sprintf("key-%d", i))
	}
	r.Corrupt(0.05, rng.New(99)) // 5% of bits flipped in every member vector
	same := 0
	for i := range clean {
		got, _ := r.Lookup(fmt.Sprintf("key-%d", i))
		if got == clean[i] {
			same++
		}
	}
	// Keys almost equidistant between two members may legitimately flip;
	// the holographic representation keeps the vast majority stable.
	if same < keys*90/100 {
		t.Errorf("only %d/%d lookups survived 5%% corruption", same, keys)
	}
	// Heal restores exact behaviour.
	r.Heal()
	for i := range clean {
		if got, _ := r.Lookup(fmt.Sprintf("key-%d", i)); got != clean[i] {
			t.Fatal("heal did not restore lookups")
		}
	}
}

// TestCorruptReproducible: a seeded corruption lands the same flips on
// the same members every time, so two identical rings corrupted from equal
// streams end with identical vectors.
func TestCorruptReproducible(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		var rings [2]*Ring
		for i := range rings {
			rings[i] = mustNew(t, 16, 1024, 8)
			for _, n := range []string{"a", "b", "c", "d", "e"} {
				if _, err := rings[i].Add(n); err != nil {
					t.Fatal(err)
				}
			}
			rings[i].Corrupt(0.15, rng.New(7))
		}
		for name, v := range rings[0].vectors {
			if !v.Equal(rings[1].vectors[name]) {
				t.Fatalf("repetition %d: member %q corrupted differently", rep, name)
			}
		}
	}
}

func TestCorruptPanicsOnBadFraction(t *testing.T) {
	r := mustNew(t, 8, 512, 9)
	defer func() {
		if recover() == nil {
			t.Error("bad fraction did not panic")
		}
	}()
	r.Corrupt(1.5, rng.New(1))
}

func TestKeySlotStable(t *testing.T) {
	r := mustNew(t, 32, 512, 10)
	if r.KeySlot("k") != r.KeySlot("k") {
		t.Error("key slot not deterministic")
	}
	if r.KeySlot("k") < 0 || r.KeySlot("k") >= 32 {
		t.Error("key slot out of range")
	}
}

func TestCircDist(t *testing.T) {
	cases := []struct{ a, b, m, want int }{
		{0, 0, 10, 0}, {0, 5, 10, 5}, {0, 9, 10, 1}, {2, 8, 10, 4}, {9, 1, 10, 2},
	}
	for _, c := range cases {
		if got := circDist(c.a, c.b, c.m); got != c.want {
			t.Errorf("circDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.m, got, c.want)
		}
	}
}
