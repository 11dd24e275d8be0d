package index

import (
	"sync"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

func randomVecs(n, d int, seed uint64) []*bitvec.Vector {
	src := rng.Sub(seed, "index-test/vecs")
	vs := make([]*bitvec.Vector, n)
	for i := range vs {
		vs[i] = bitvec.Random(d, src)
	}
	return vs
}

// noisy returns a copy of v with a fraction rho of positions flipped
// (each position independently, so the flip count is Binomial(d, rho)).
func noisy(v *bitvec.Vector, rho float64, src *rng.Stream) *bitvec.Vector {
	out := v.Clone()
	for i := 0; i < v.Dim(); i++ {
		if src.Float64() < rho {
			out.FlipBit(i)
		}
	}
	return out
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.normalized()
	if c.SignatureBits != 256 || c.MinSize != 2048 || c.RadiusSlack != 5 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if !(Config{}).enabled(2048) {
		t.Fatal("zero config should enable at MinSize")
	}
	if (Config{}).enabled(2047) {
		t.Fatal("zero config should not enable below MinSize")
	}
	if (Config{Disabled: true}).enabled(1 << 20) {
		t.Fatal("disabled config must never enable")
	}
}

func TestExactModeBitIdenticalToLinearScan(t *testing.T) {
	for _, d := range []int{100, 1000, 10007} {
		vs := randomVecs(500, d, uint64(d))
		ix := New(vs, Config{Candidates: len(vs), SignatureBits: 128, Seed: 3})
		if !ix.Exact() {
			t.Fatal("C == n should report exact")
		}
		src := rng.Sub(99, "exact-query")
		for trial := 0; trial < 50; trial++ {
			var q *bitvec.Vector
			if trial%2 == 0 {
				q = bitvec.Random(d, src)
			} else {
				q = noisy(vs[trial%len(vs)], 0.3, src)
			}
			wi, wh := bitvec.Nearest(q, vs)
			gi, gh := ix.Nearest(q)
			if gi != wi || gh != wh {
				t.Fatalf("d=%d trial=%d: index (%d,%d), linear (%d,%d)", d, trial, gi, gh, wi, wh)
			}
		}
	}
}

func TestExactModeTieResolution(t *testing.T) {
	// Two stored vectors at the same distance from the query: the linear
	// scan picks the lower index, and exact mode must do the same even
	// though their SIGNATURE distances differ.
	d := 640
	base := bitvec.Random(d, rng.Sub(5, "tie"))
	a := base.Clone()
	a.FlipBit(1) // sampled positions may or may not include these
	b := base.Clone()
	b.FlipBit(d - 2)
	vs := []*bitvec.Vector{a, b}
	ix := New(vs, Config{Candidates: 2, Seed: 11})
	if idx, hd := ix.Nearest(base); idx != 0 || hd != 1 {
		t.Fatalf("tie: got (%d,%d), want (0,1)", idx, hd)
	}
}

func TestApproximateRecallFloor(t *testing.T) {
	// The acceptance scenario: random item memory, noisy probes of stored
	// items, recall of the true nearest neighbor >= 0.99.
	const (
		n, d    = 4000, 4096
		queries = 400
		rho     = 0.3
	)
	vs := randomVecs(n, d, 42)
	ix := New(vs, Config{Seed: 7})
	if ix.Exact() {
		t.Fatalf("fixture not approximate: C=%d n=%d", ix.Candidates(), n)
	}
	src := rng.Sub(1234, "recall-queries")
	hits := 0
	for i := 0; i < queries; i++ {
		target := i % n
		q := noisy(vs[target], rho, src)
		wi, wh := bitvec.Nearest(q, vs)
		gi, gh := ix.Nearest(q)
		if gi == wi {
			hits++
			if gh != wh {
				t.Fatalf("query %d: right index %d but distance %d != exact %d", i, gi, gh, wh)
			}
		}
	}
	recall := float64(hits) / queries
	if recall < 0.99 {
		t.Fatalf("recall %.4f below 0.99 floor (%d/%d)", recall, hits, queries)
	}
}

func TestWarmQueriesAllocateNothing(t *testing.T) {
	// Nearest and a screened WithinRadius borrow their signature,
	// distances and histogram from the index, so a warm query allocates
	// nothing but the radius results it appends.
	const d = 1024
	vs := randomVecs(3000, d, 21)
	ix := New(vs, Config{Seed: 4})
	q := noisy(vs[7], 0.2, rng.Sub(5, "warm-query"))
	out := make([]int, 0, len(vs))
	ix.Nearest(q)
	if n := testing.AllocsPerRun(20, func() { ix.Nearest(q) }); n != 0 {
		t.Errorf("Index.Nearest made %v allocations, want 0", n)
	}
	if _, useful := ix.radiusThreshold(d / 4); !useful {
		t.Fatal("radius d/4 should be screened")
	}
	if n := testing.AllocsPerRun(20, func() { out = ix.WithinRadius(q, d/4, out[:0]) }); n != 0 {
		t.Errorf("Index.WithinRadius made %v allocations, want 0", n)
	}
}

func TestConcurrentQueriesAgree(t *testing.T) {
	// Readers share the index's free list of query scratch; run under
	// -race in CI.
	const d = 512
	vs := randomVecs(2500, d, 22)
	ix := New(vs, Config{Seed: 6})
	src := rng.Sub(8, "concurrent-queries")
	queries := make([]*bitvec.Vector, 40)
	wantIdx := make([]int, len(queries))
	wantWithin := make([][]int, len(queries))
	for i := range queries {
		queries[i] = noisy(vs[(i*61)%len(vs)], 0.25, src)
		wantIdx[i], _ = ix.Nearest(queries[i])
		wantWithin[i] = ix.WithinRadius(queries[i], d/3, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range queries {
				i := (j + g) % len(queries)
				if idx, _ := ix.Nearest(queries[i]); idx != wantIdx[i] {
					t.Errorf("goroutine %d: Nearest %d = %d, want %d", g, i, idx, wantIdx[i])
				}
				if got := ix.WithinRadius(queries[i], d/3, nil); len(got) != len(wantWithin[i]) {
					t.Errorf("goroutine %d: WithinRadius %d found %d, want %d", g, i, len(got), len(wantWithin[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestApproximateDistanceIsAlwaysExactForReturnedIndex(t *testing.T) {
	// Even when the index returns a non-optimal neighbor, the reported
	// distance must be that vector's true exact distance (no sketch
	// estimates leak out).
	vs := randomVecs(300, 512, 8)
	ix := New(vs, Config{Candidates: 4, SignatureBits: 64, Seed: 2})
	src := rng.Sub(77, "exact-dist")
	for i := 0; i < 100; i++ {
		q := bitvec.Random(512, src)
		idx, hd := ix.Nearest(q)
		if want := q.HammingDistance(vs[idx]); hd != want {
			t.Fatalf("returned distance %d, true distance %d", hd, want)
		}
	}
}

func TestWithinRadiusNoFalsePositivesAndHighRecall(t *testing.T) {
	const n, d = 2000, 2048
	vs := randomVecs(n, d, 17)
	ix := New(vs, Config{Seed: 5})
	src := rng.Sub(55, "radius-queries")
	r := d / 5 // well below d/2: the screen regime
	if t2, useful := ix.radiusThreshold(r); !useful {
		t.Fatalf("screen should be useful at r=%d (t=%d)", r, t2)
	}
	missed, total := 0, 0
	for i := 0; i < 100; i++ {
		q := noisy(vs[i%n], 0.1, src)
		var want []int
		for j, v := range vs {
			if _, within := bitvec.DistanceBounded(v, q, r); within {
				want = append(want, j)
			}
		}
		got := ix.WithinRadius(q, r, nil)
		// No false positives, ascending order.
		gotSet := make(map[int]bool, len(got))
		prev := -1
		for _, g := range got {
			if g <= prev {
				t.Fatalf("results not ascending: %v", got)
			}
			prev = g
			if _, within := bitvec.DistanceBounded(vs[g], q, r); !within {
				t.Fatalf("false positive index %d", g)
			}
			gotSet[g] = true
		}
		for _, w := range want {
			total++
			if !gotSet[w] {
				missed++
			}
		}
	}
	if total == 0 {
		t.Fatal("fixture produced no in-radius pairs")
	}
	if recall := 1 - float64(missed)/float64(total); recall < 0.999 {
		t.Fatalf("radius recall %.5f below floor (missed %d/%d)", recall, missed, total)
	}
}

func TestWithinRadiusExactFallbacks(t *testing.T) {
	const n, d = 200, 1000
	vs := randomVecs(n, d, 23)
	src := rng.Sub(66, "fallback")
	q := bitvec.Random(d, src)
	exact := func(ix *Index, r int) {
		t.Helper()
		var want []int
		for j, v := range vs {
			if _, within := bitvec.DistanceBounded(v, q, r); within {
				want = append(want, j)
			}
		}
		got := ix.WithinRadius(q, r, nil)
		if len(got) != len(want) {
			t.Fatalf("r=%d: got %d results, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("r=%d: result %d is %d, want %d", r, i, got[i], want[i])
			}
		}
	}
	// Slack <= 0 disables the screen entirely.
	exact(New(vs, Config{RadiusSlack: -1}), d/5)
	// A radius near d/2 has no screening power; must auto-fall back.
	ix := New(vs, Config{Seed: 9})
	if _, useful := ix.radiusThreshold(d/2 - 10); useful {
		t.Fatal("screen should be useless near d/2")
	}
	exact(ix, d/2-10)
	// r >= d activates everything.
	if got := ix.WithinRadius(q, d, nil); len(got) != n {
		t.Fatalf("r=d: got %d results, want all %d", len(got), n)
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted zero vectors")
		}
	}()
	New(nil, Config{})
}

func TestMismatchedDimensionsPanic(t *testing.T) {
	vs := []*bitvec.Vector{bitvec.New(64), bitvec.New(128)}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted mismatched dimensions")
		}
	}()
	New(vs, Config{})
}

func TestSignatureWiderThanDimensionClamps(t *testing.T) {
	vs := randomVecs(10, 50, 3)
	ix := New(vs, Config{SignatureBits: 4096, Candidates: 10})
	if ix.SignatureBits() != 50 {
		t.Fatalf("m=%d, want clamp to d=50", ix.SignatureBits())
	}
	q := noisy(vs[3], 0.1, rng.Sub(1, "clamp"))
	wi, wh := bitvec.Nearest(q, vs)
	if gi, gh := ix.Nearest(q); gi != wi || gh != wh {
		t.Fatalf("clamped index diverged: (%d,%d) vs (%d,%d)", gi, gh, wi, wh)
	}
}

func TestBuildDeterministic(t *testing.T) {
	vs := randomVecs(100, 500, 12)
	a := New(vs, Config{Seed: 4, Candidates: 8})
	b := New(vs, Config{Seed: 4, Candidates: 8})
	q := bitvec.Random(500, rng.Sub(2, "det"))
	ai, ah := a.Nearest(q)
	bi, bh := b.Nearest(q)
	if ai != bi || ah != bh {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", ai, ah, bi, bh)
	}
	for i, p := range a.positions {
		if b.positions[i] != p {
			t.Fatal("sampled positions differ across identical builds")
		}
	}
}
