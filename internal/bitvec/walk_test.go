package bitvec_test

// Differential tests of BasisWalk against the dense reference scan
// NearestXor (kernels_test.go) on the basis sets the encoders decode
// against. They live in an external test package so they can build the
// sets with internal/core, which imports bitvec.

import (
	"fmt"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

// walkQueries returns bound query pairs (x, y) for a set: a random query,
// noisy copies of a few levels (each bit flipped with probability 1/8,
// 1/4 or 1/2), and a level itself, each split as x ⊗ y with a random x the
// way a regression model unbinds it.
func walkQueries(set *core.Set, src *rng.Stream) [][2]*bitvec.Vector {
	d, m := set.Dim(), set.Len()
	var qs [][2]*bitvec.Vector
	add := func(q *bitvec.Vector) {
		x := bitvec.Random(d, src)
		qs = append(qs, [2]*bitvec.Vector{x, x.Xor(q)})
	}
	add(bitvec.Random(d, src))
	add(set.At(m / 2).Clone())
	for i, p := range []float64{0.125, 0.25, 0.5} {
		q := set.At((i * 7) % m).Clone()
		for b := 0; b < d; b++ {
			if src.Float64() < p {
				q.FlipBit(b)
			}
		}
		add(q)
	}
	return qs
}

// checkWalk compares the walk with the dense reference on every query:
// the argmin with its tie rule, and the whole distance profile.
func checkWalk(t *testing.T, name string, vs []*bitvec.Vector, qs [][2]*bitvec.Vector) {
	t.Helper()
	bw := bitvec.NewBasisWalk(vs)
	if bw.Len() != len(vs) {
		t.Fatalf("%s: Len = %d, want %d", name, bw.Len(), len(vs))
	}
	dist := make([]int, len(vs))
	for qi, xy := range qs {
		x, y := xy[0], xy[1]
		wantIdx, wantHD := bitvec.NearestXor(x, y, vs)
		idx, hd := bw.NearestXor(x, y, dist)
		if idx != wantIdx || hd != wantHD {
			t.Fatalf("%s query %d: NearestXor = (%d,%d), reference (%d,%d)", name, qi, idx, hd, wantIdx, wantHD)
		}
		q := x.Xor(y)
		for k, v := range vs {
			if want := q.HammingDistance(v); dist[k] != want {
				t.Fatalf("%s query %d: dist[%d] = %d, reference %d", name, qi, k, dist[k], want)
			}
		}
		if idx, hd := bw.Nearest(q, nil); idx != wantIdx || hd != wantHD {
			t.Fatalf("%s query %d: Nearest = (%d,%d), reference (%d,%d)", name, qi, idx, hd, wantIdx, wantHD)
		}
	}
}

func TestBasisWalkMatchesDenseScan(t *testing.T) {
	src := rng.New(2024)
	for _, d := range []int{1, 63, 64, 65, 640, 10000} {
		for _, c := range []struct {
			name string
			set  *core.Set
		}{
			{"level128", core.LevelSet(128, d, src)},
			{"level8_r0.3", core.LevelSetR(8, d, 0.3, src)},
			{"circular24", core.CircularSetR(24, d, 0.01, src)},
			{"circular365", core.CircularSetR(365, d, 0.01, src)},
			{"circular16_r0", core.CircularSet(16, d, src)},
			{"random128", core.RandomSet(128, d, src)},
			{"m1", core.LevelSet(1, d, src)},
		} {
			checkWalk(t, fmt.Sprintf("d=%d %s", d, c.name), c.set.Vectors(), walkQueries(c.set, src))
		}
	}
}

func TestBasisWalkTiesResolveLow(t *testing.T) {
	// A chain that returns to earlier vectors: every query ties between
	// the repeats, and the walk must keep the first of them.
	src := rng.New(7)
	for _, d := range []int{1, 64, 65, 1000} {
		a, b, c := bitvec.Random(d, src), bitvec.Random(d, src), bitvec.Random(d, src)
		vs := []*bitvec.Vector{b, a, c, a, b, a}
		var qs [][2]*bitvec.Vector
		for _, q := range []*bitvec.Vector{a, b, c, bitvec.Random(d, src)} {
			x := bitvec.Random(d, src)
			qs = append(qs, [2]*bitvec.Vector{x, x.Xor(q)})
		}
		checkWalk(t, fmt.Sprintf("d=%d repeats", d), vs, qs)
	}
}

func TestBasisWalkIsSparseOnLevelSets(t *testing.T) {
	// The walk pays off because neighbouring levels differ in few words:
	// Table 2's 128-level label basis must walk under a quarter of the
	// words a dense scan reads.
	const m, d = 128, 10000
	bw := bitvec.NewBasisWalk(core.LevelSet(m, d, rng.New(42)).Vectors())
	dense := m * ((d + 63) / 64)
	if n := bw.WalkEntries(); 4*n >= dense {
		t.Fatalf("level set walks %d of %d dense words", n, dense)
	}
}

func TestBasisWalkAllocatesNothing(t *testing.T) {
	const d = 10000
	src := rng.New(11)
	set := core.LevelSet(128, d, src)
	bw := bitvec.NewBasisWalk(set.Vectors())
	x, y := bitvec.Random(d, src), bitvec.Random(d, src)
	dist := make([]int, set.Len())
	if n := testing.AllocsPerRun(20, func() {
		bw.NearestXor(x, y, nil)
		bw.NearestXor(x, y, dist)
		bw.Nearest(x, nil)
	}); n != 0 {
		t.Errorf("BasisWalk queries made %v allocations, want 0", n)
	}
}

func TestBasisWalkPanics(t *testing.T) {
	src := rng.New(3)
	vs := core.LevelSet(4, 100, src).Vectors()
	bw := bitvec.NewBasisWalk(vs)
	for name, f := range map[string]func(){
		"empty set":       func() { bitvec.NewBasisWalk(nil) },
		"mixed dimension": func() { bitvec.NewBasisWalk([]*bitvec.Vector{vs[0], bitvec.New(101)}) },
		"query dimension": func() { bw.Nearest(bitvec.New(101), nil) },
		"dist length":     func() { bw.Nearest(vs[0], make([]int, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
