package sdm

import (
	"math"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

// testMemory returns a small but functional memory: d=256, enough
// locations and radius for reliable recall of a handful of items.
func testMemory(seed uint64) *Memory {
	return New(Config{Dim: 256, Locations: 2000, Radius: activationRadius(256, 0.01), Seed: seed})
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Dim: 0, Locations: 10, Radius: 1},
		{Dim: 64, Locations: 0, Radius: 1},
		{Dim: 64, Locations: 10, Radius: 64},
		{Dim: 64, Locations: 10, Radius: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAccessors(t *testing.T) {
	m := testMemory(1)
	if m.Dim() != 256 || m.Locations() != 2000 {
		t.Error("accessors wrong")
	}
}

func TestActivationSparse(t *testing.T) {
	// At the p=0.01 radius roughly 1% of locations activate; allow a wide
	// band but require sparsity (≪ all) and non-emptiness on average.
	m := testMemory(2)
	r := rng.New(3)
	total := 0
	for i := 0; i < 20; i++ {
		total += m.ActivationCount(bitvec.Random(256, r))
	}
	avg := float64(total) / 20
	if avg < 2 || avg > 200 {
		t.Errorf("average activation count %v outside sparse regime", avg)
	}
}

func TestAutoAssociativeRecallExact(t *testing.T) {
	m := testMemory(4)
	r := rng.New(5)
	items := make([]*bitvec.Vector, 5)
	for i := range items {
		items[i] = bitvec.Random(256, r)
		m.Write(items[i], items[i])
	}
	for i, item := range items {
		got, ok := m.Read(item)
		if !ok {
			t.Fatalf("item %d: no active locations", i)
		}
		if d := got.Distance(item); d > 0.05 {
			t.Errorf("item %d: clean-cue recall distance %v", i, d)
		}
	}
}

func TestNoisyCueConverges(t *testing.T) {
	// Kanerva's headline property: a cue within the critical distance
	// iteratively converges to the stored word.
	m := testMemory(6)
	r := rng.New(7)
	item := bitvec.Random(256, r)
	m.Write(item, item)
	cue := item.Clone()
	for i := 0; i < 25; i++ { // ~10% noise
		cue.FlipBit(r.Intn(256))
	}
	got, iters, ok := m.ReadIterative(cue, 10)
	if !ok {
		t.Fatal("no active locations during iterative read")
	}
	if d := got.Distance(item); d > 0.05 {
		t.Errorf("converged word distance %v after %d iters", d, iters)
	}
}

func TestHeteroAssociativeSequence(t *testing.T) {
	// Store a chain x1→x2→x3 and walk it.
	m := testMemory(8)
	r := rng.New(9)
	xs := []*bitvec.Vector{bitvec.Random(256, r), bitvec.Random(256, r), bitvec.Random(256, r)}
	m.Write(xs[0], xs[1])
	m.Write(xs[1], xs[2])
	cur := xs[0]
	for step := 1; step < 3; step++ {
		next, ok := m.Read(cur)
		if !ok {
			t.Fatal("chain read failed")
		}
		if d := next.Distance(xs[step]); d > 0.1 {
			t.Fatalf("step %d: distance %v", step, d)
		}
		cur = xs[step] // use the clean vector to keep the test focused on one hop
	}
}

func TestReadUnrelatedAddressIsNoise(t *testing.T) {
	m := testMemory(10)
	r := rng.New(11)
	item := bitvec.Random(256, r)
	m.Write(item, item)
	unrelated := bitvec.Random(256, r)
	got, ok := m.Read(unrelated)
	if !ok {
		return // acceptable: nothing activated
	}
	if sim := got.Similarity(item); sim > 0.75 {
		t.Errorf("unrelated read too similar to stored item: %v", sim)
	}
}

func TestReadNoActivationsReportsNotOK(t *testing.T) {
	// Radius 0: only an exact address match activates.
	m := New(Config{Dim: 128, Locations: 4, Radius: 0, Seed: 12})
	if _, ok := m.Read(bitvec.New(128)); ok {
		t.Error("read with no activated locations returned ok")
	}
	if _, _, ok := m.ReadIterative(bitvec.New(128), 3); ok {
		t.Error("iterative read with no activations returned ok")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	m := testMemory(13)
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	m.Write(bitvec.New(64), bitvec.New(64))
}

func TestCapacityDegradation(t *testing.T) {
	// Recall quality degrades gracefully (not catastrophically) as more
	// items are stored — the sparse-distributed property.
	m := testMemory(14)
	r := rng.New(15)
	var items []*bitvec.Vector
	recallErr := func() float64 {
		var sum float64
		for _, it := range items {
			got, ok := m.Read(it)
			if !ok {
				sum++
				continue
			}
			sum += got.Distance(it)
		}
		return sum / float64(len(items))
	}
	for i := 0; i < 10; i++ {
		v := bitvec.Random(256, r)
		items = append(items, v)
		m.Write(v, v)
	}
	few := recallErr()
	for i := 0; i < 40; i++ {
		v := bitvec.Random(256, r)
		items = append(items, v)
		m.Write(v, v)
	}
	many := recallErr()
	if few > 0.1 {
		t.Errorf("light-load recall error %v too high", few)
	}
	if many > 0.4 {
		t.Errorf("heavy-load recall error %v catastrophically high", many)
	}
}

func TestActivationRadiusMonotone(t *testing.T) {
	// Larger tail probability → larger radius.
	r1 := activationRadius(1000, 0.01)
	r2 := activationRadius(1000, 0.001)
	if r1 <= r2 {
		t.Errorf("radius p=0.01 (%d) should exceed p=0.001 (%d)", r1, r2)
	}
	if activationRadius(4, 0.0001) < 0 {
		t.Error("tiny-dimension radius went negative")
	}
}

func TestSqrtf(t *testing.T) {
	for _, x := range []float64{0, 1, 2, 100, 10000} {
		got := sqrtf(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("sqrtf(%v) = %v, want %v", x, got, want)
		}
	}
}
