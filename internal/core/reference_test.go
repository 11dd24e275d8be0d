package core

// Per-bit reference for the paper's Algorithm 1: the original level loop
// that LevelSetR's word-parallel interpolation is differential-tested
// against, and the circular construction rebuilt on top of it. Keep these
// boring: their only job is to be easy to audit.

import (
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

// referenceLevelSetR is LevelSetR with the per-bit SetBit/Bit loop: bit k
// of level l comes from the segment's start where phi[k] < τ_l and from its
// end otherwise. It draws from src in the same order as LevelSetR.
func referenceLevelSetR(m, d int, r float64, src *rng.Stream) []*bitvec.Vector {
	vecs := make([]*bitvec.Vector, m)
	if m == 1 {
		vecs[0] = bitvec.Random(d, src)
		return vecs
	}
	n := r + (1-r)*float64(m-1)
	var start, end *bitvec.Vector
	var phi []float64
	segment := -1
	for l := 0; l < m; l++ {
		t := float64(l)
		s := int(t / n)
		p := t - float64(s)*n
		if n-p < 1e-9 {
			s++
			p = 0
		}
		if s != segment {
			if start == nil {
				start = bitvec.Random(d, src)
			} else {
				start = end
			}
			end = bitvec.Random(d, src)
			phi = uniforms(d, src, phi)
			segment = s
		}
		if p == 0 {
			vecs[l] = start.Clone()
			continue
		}
		tau := 1 - p/n
		v := bitvec.New(d)
		for k := 0; k < d; k++ {
			if phi[k] < tau {
				v.SetBit(k, start.Bit(k))
			} else {
				v.SetBit(k, end.Bit(k))
			}
		}
		vecs[l] = v
	}
	return vecs
}

// referenceCircularSetR is CircularSetR's two-phase construction over the
// reference level set.
func referenceCircularSetR(m, d int, r float64, src *rng.Stream) []*bitvec.Vector {
	if m == 1 {
		return []*bitvec.Vector{bitvec.Random(d, src)}
	}
	if m%2 != 0 {
		big := referenceCircularSetR(2*m, d, r, src)
		vecs := make([]*bitvec.Vector, m)
		for i := range vecs {
			vecs[i] = big[2*i]
		}
		return vecs
	}
	half := m / 2
	phase1 := referenceLevelSetR(half+1, d, r, src)
	vecs := make([]*bitvec.Vector, m)
	copy(vecs, phase1)
	for i := half + 1; i < m; i++ {
		vecs[i] = vecs[i-1].Xor(phase1[i-half-1].Xor(phase1[i-half]))
	}
	return vecs
}

// TestLevelAndCircularMatchReference pins LevelSetR and CircularSetR to
// the per-bit reference over word-boundary dimensions, set sizes up to the
// Mars Express anomaly basis (512) and the r grid of the paper's Figure 8.
func TestLevelAndCircularMatchReference(t *testing.T) {
	dims := []int{1, 63, 64, 65, 777, 10000}
	sizes := []int{1, 2, 3, 8, 24, 25, 128, 365, 512}
	rs := []float64{0, 0.01, 0.1, 0.37, 1}
	for _, d := range dims {
		for _, m := range sizes {
			for _, r := range rs {
				seed := uint64(d)*1_000_003 + uint64(m)*101 + uint64(r*1000)
				check := func(kind string, got *Set, want []*bitvec.Vector) {
					t.Helper()
					if got.Len() != len(want) {
						t.Fatalf("%s d=%d m=%d r=%v: %d vectors, reference %d", kind, d, m, r, got.Len(), len(want))
					}
					for i, w := range want {
						if !got.At(i).Equal(w) {
							t.Fatalf("%s d=%d m=%d r=%v: vector %d diverges from the per-bit reference", kind, d, m, r, i)
						}
					}
				}
				check("level", LevelSetR(m, d, r, rng.New(seed)), referenceLevelSetR(m, d, r, rng.New(seed)))
				check("circular", CircularSetR(m, d, r, rng.New(seed)), referenceCircularSetR(m, d, r, rng.New(seed)))
			}
		}
	}
}

// TestInterpolateThresholdEdges pins the comparison at its edges: a filter
// value equal to τ takes the end bit, one just below takes the start bit.
func TestInterpolateThresholdEdges(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 130} {
		start, end := bitvec.New(d), bitvec.New(d).Not()
		phi := make([]float64, d)
		tau := 0.5
		for k := range phi {
			if k%3 == 0 {
				phi[k] = tau
			} else {
				phi[k] = 0.49999999999999994 // the float64 just below 0.5
			}
		}
		v := interpolate(start, end, phi, tau)
		for k := 0; k < d; k++ {
			want := 0
			if k%3 == 0 {
				want = 1
			}
			if v.Bit(k) != want {
				t.Fatalf("d=%d: bit %d = %d, want %d", d, k, v.Bit(k), want)
			}
		}
	}
}
