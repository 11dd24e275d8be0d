package embed

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

// denseTopK is topK as it was before the walk: one Vector.Distance per
// basis vector, then a sort on (distance, index). It is the reference the
// walk's top-k is pinned against.
func denseTopK(q *bitvec.Vector, set *core.Set, k int) ([]int, []float64) {
	n := set.Len()
	if k > n {
		k = n
	}
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, n)
	for i := 0; i < n; i++ {
		cands[i] = cand{i, q.Distance(set.At(i))}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].idx < cands[b].idx
	})
	idx := make([]int, k)
	dist := make([]float64, k)
	for i := 0; i < k; i++ {
		idx[i], dist[i] = cands[i].idx, cands[i].d
	}
	return idx, dist
}

func TestDecodeWeightedMatchesDenseTopK(t *testing.T) {
	// Both encoders' weighted decodes, on level, circular and random sets,
	// must equal what the dense top-k gives, bit for bit. Small dimensions
	// make distance ties common, so the tie order is checked too.
	src := rng.New(131)
	for _, d := range []int{1, 64, 65, 1000, 10000} {
		for _, c := range []struct {
			name string
			set  *core.Set
		}{
			{"level32", core.LevelSet(32, d, src)},
			{"level9_r0.2", core.LevelSetR(9, d, 0.2, src)},
			{"circular24", core.CircularSetR(24, d, 0.01, src)},
			{"circular7", core.CircularSet(7, d, src)},
			{"random16", core.RandomSet(16, d, src)},
		} {
			name, set := c.name, c.set
			m := set.Len()
			se := NewScalarEncoder(set, -1, 1)
			ce := NewCircularEncoder(set, 24)
			acc := bitvec.NewAccumulator(d)
			acc.Add(set.At(m / 3))
			acc.Add(set.At(m/3 + 1))
			queries := []*bitvec.Vector{
				acc.Threshold(src), // between two neighbours
				flipSome(set.At(m-1), 0.125, src),
				flipSome(set.At(0), 0.4, src),
				bitvec.Random(d, src),
			}
			for qi, q := range queries {
				for _, k := range []int{2, 3, 5, m + 3} {
					at := fmt.Sprintf("d=%d %s query %d k=%d", d, name, qi, k)
					idx, dist := topK(q, set, k)
					wantIdx, wantDist := denseTopK(q, set, k)
					for i := range wantIdx {
						if len(idx) != len(wantIdx) || idx[i] != wantIdx[i] || dist[i] != wantDist[i] {
							t.Fatalf("%s: topK = %v %v, dense %v %v", at, idx, dist, wantIdx, wantDist)
						}
					}
					if got, want := se.DecodeWeighted(q, k), se.weightedMean(wantIdx, wantDist); got != want {
						t.Fatalf("%s: scalar DecodeWeighted = %v, dense %v", at, got, want)
					}
					want, ok := ce.weightedMean(wantIdx, wantDist)
					if !ok {
						want = ce.Decode(q)
					}
					if got := ce.DecodeWeighted(q, k); got != want {
						t.Fatalf("%s: circular DecodeWeighted = %v, dense %v", at, got, want)
					}
				}
			}
		}
	}
}

func TestConcurrentFirstDecode(t *testing.T) {
	// Goroutines racing on the first decode of fresh encoders build each
	// set's walk once and agree with the dense scan; run under -race in CI.
	const d, m = 1000, 64
	src := rng.New(141)
	labels := core.LevelSet(m, d, src)
	phases := core.CircularSet(m, d, src)
	queries := make([]*bitvec.Vector, 32)
	want := make([]int, len(queries))
	for i := range queries {
		queries[i] = flipSome(labels.At((i*5)%m), 0.3, src)
		want[i], _ = bitvec.Nearest(queries[i], labels.Vectors())
	}
	model := bitvec.Random(d, src)
	bound := make([]*bitvec.Vector, len(queries))
	for i, q := range queries {
		bound[i] = model.Xor(q)
	}
	wantPhase := make([]int, len(queries))
	for i, q := range queries {
		wantPhase[i], _ = bitvec.Nearest(q, phases.Vectors())
	}
	se := NewScalarEncoder(labels, 0, m-1)
	ce := NewCircularEncoder(phases, m)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for j := range queries {
				i := (j + g) % len(queries)
				switch g % 3 {
				case 0:
					if got := se.DecodeIndex(queries[i]); got != want[i] {
						t.Errorf("goroutine %d: DecodeIndex %d = %d, want %d", g, i, got, want[i])
					}
				case 1:
					if got := se.DecodeBound(model, bound[i]); got != se.Value(want[i]) {
						t.Errorf("goroutine %d: DecodeBound %d = %v, want %v", g, i, got, se.Value(want[i]))
					}
				default:
					if got := ce.DecodeIndex(queries[i]); got != wantPhase[i] {
						t.Errorf("goroutine %d: circular DecodeIndex %d = %d, want %d", g, i, got, wantPhase[i])
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

func TestDecodeWeightedK1EqualsDecode(t *testing.T) {
	e := NewScalarEncoder(levelSet(16, 4096, 91), 0, 15)
	q := e.Encode(9)
	if e.DecodeWeighted(q, 1) != e.Decode(q) {
		t.Error("k=1 weighted decode differs from Decode")
	}
	ce := NewCircularEncoder(circularSet(16, 4096, 92), 16)
	cq := ce.Encode(5)
	if ce.DecodeWeighted(cq, 1) != ce.Decode(cq) {
		t.Error("circular k=1 weighted decode differs from Decode")
	}
}

func TestDecodeWeightedExactVector(t *testing.T) {
	// On a clean basis vector the weighted decode must stay within one
	// quantization step of the true value.
	e := NewScalarEncoder(levelSet(32, 10000, 93), 0, 31)
	for _, x := range []float64{5, 15, 25} {
		got := e.DecodeWeighted(e.Encode(x), 3)
		if math.Abs(got-x) > 1 {
			t.Errorf("weighted decode of clean %v = %v", x, got)
		}
	}
}

func TestDecodeWeightedInterpolatesBetweenLevels(t *testing.T) {
	// A bundle of two adjacent levels decodes between them under weighted
	// decode, while the nearest rule must snap to one of them.
	d := 10000
	set := levelSet(16, d, 94)
	e := NewScalarEncoder(set, 0, 15)
	acc := bitvec.NewAccumulator(d)
	acc.Add(e.Encode(6))
	acc.Add(e.Encode(7))
	q := acc.Threshold(rng.New(95))
	got := e.DecodeWeighted(q, 4)
	if got < 5.5 || got > 7.5 {
		t.Errorf("weighted decode of 6/7 bundle = %v, want in (5.5, 7.5)", got)
	}
	snap := e.Decode(q)
	if snap != 6 && snap != 7 {
		t.Errorf("nearest decode of 6/7 bundle = %v, want 6 or 7", snap)
	}
}

func TestDecodeWeightedCircularWrapsCorrectly(t *testing.T) {
	// A bundle of the two vectors around the seam (phase 23 and 1 of a
	// 24-period) must decode near 0, not near 12 — a linear average of
	// phases would return ~12.
	d := 10000
	set := circularSet(24, d, 96)
	e := NewCircularEncoder(set, 24)
	acc := bitvec.NewAccumulator(d)
	acc.Add(e.Encode(23))
	acc.Add(e.Encode(1))
	q := acc.Threshold(rng.New(97))
	got := e.DecodeWeighted(q, 4)
	distToZero := math.Min(got, 24-got)
	if distToZero > 2.5 {
		t.Errorf("circular weighted decode of seam bundle = %v, want near 0", got)
	}
}

func TestDecodeWeightedPanicsOnBadK(t *testing.T) {
	e := NewScalarEncoder(levelSet(8, 512, 98), 0, 7)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k=0 did not panic")
			}
		}()
		e.DecodeWeighted(e.Encode(1), 0)
	}()
	ce := NewCircularEncoder(circularSet(8, 512, 99), 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("circular k=0 did not panic")
			}
		}()
		ce.DecodeWeighted(ce.Encode(1), 0)
	}()
}

func TestDecodeWeightedKLargerThanSet(t *testing.T) {
	e := NewScalarEncoder(levelSet(4, 2048, 100), 0, 3)
	// Must clamp k to the set size, not panic.
	got := e.DecodeWeighted(e.Encode(2), 100)
	if got < 0 || got > 3 {
		t.Errorf("clamped weighted decode = %v out of range", got)
	}
}

func TestDecodeWeightedReducesRegressionError(t *testing.T) {
	// The motivating property: on a smooth target the weighted decode
	// yields lower squared error than the nearest-vector decode.
	d := 10000
	stream := rng.New(101)
	xs := core.CircularSet(64, d, stream)
	ys := core.LevelSet(32, d, stream)
	xe := NewCircularEncoder(xs, 2*math.Pi)
	ye := NewScalarEncoder(ys, -1.3, 1.3)

	acc := bitvec.NewAccumulator(d)
	train := rng.New(102)
	for i := 0; i < 300; i++ {
		theta := train.Float64() * 2 * math.Pi
		acc.Add(xe.Encode(theta).Xor(ye.Encode(math.Sin(theta))))
	}
	model := acc.Threshold(rng.New(103))

	var seNearest, seWeighted float64
	n := 150
	for i := 0; i < n; i++ {
		theta := train.Float64() * 2 * math.Pi
		pv := model.Xor(xe.Encode(theta))
		truth := math.Sin(theta)
		dn := ye.Decode(pv) - truth
		dw := ye.DecodeWeighted(pv, 5) - truth
		seNearest += dn * dn
		seWeighted += dw * dw
	}
	if seWeighted >= seNearest {
		t.Errorf("weighted decode SE %v not below nearest SE %v", seWeighted, seNearest)
	}
}
