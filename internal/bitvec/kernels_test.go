package bitvec

// Differential tests pinning the word-parallel kernels against the per-bit
// reference implementations in reference.go, across dimensions that are
// deliberately not multiples of 64 (plus the aligned cases), arbitrary
// weights, every tie mode, and identical random sources on both sides.

import (
	"math"
	"math/rand"
	"testing"
)

// kernelDims stresses word boundaries: single-word, exact multiples, one
// over/under, and large odd dimensions like the paper's d = 10000.
var kernelDims = []int{1, 2, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193, 777, 1000, 4096, 10000, 10007}

func randomCounts(d int, r *rand.Rand) *Accumulator {
	a := NewAccumulator(d)
	for i := range a.counts {
		// Small range so zeros (ties) occur often.
		a.counts[i] = int32(r.Intn(7) - 3)
	}
	return a
}

func TestDifferentialAddWeighted(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for _, d := range kernelDims {
		for _, w := range []int32{1, -1, 2, -2, 7, -13, 1 << 20} {
			v := Random(d, newTestSource(r.Int63()))
			fast := randomCounts(d, rand.New(rand.NewSource(55)))
			ref := NewAccumulator(d)
			copy(ref.counts, fast.counts)
			ref.n = fast.n
			fast.addWeighted(v, w)
			ref.referenceAddWeighted(v, w)
			if fast.n != ref.n {
				t.Fatalf("d=%d w=%d: n %d vs %d", d, w, fast.n, ref.n)
			}
			for i := range ref.counts {
				if fast.counts[i] != ref.counts[i] {
					t.Fatalf("d=%d w=%d: count[%d] = %d, reference %d", d, w, i, fast.counts[i], ref.counts[i])
				}
			}
		}
	}
}

func TestAddWeightedRejectsOverflowingWeight(t *testing.T) {
	weights := []int{math.MinInt32} // −w wraps; the sign kernels cannot classify it
	if ^uint(0)>>32 != 0 {
		// Out-of-int32 weights only exist on 64-bit ints; build them from a
		// non-constant so the expression also type-checks under GOARCH=386.
		big := int64(1) << 40
		weights = append(weights, int(big), int(-big))
	}
	for _, w := range weights {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddWeighted accepted unsafe weight %d", w)
				}
			}()
			NewAccumulator(8).AddWeighted(New(8), w)
		}()
	}
	// The extremes that do fit the counters are accepted.
	NewAccumulator(8).AddWeighted(New(8), math.MaxInt32)
	NewAccumulator(8).AddWeighted(New(8), math.MinInt32+1)
}

func TestThresholdUnknownTieBreakActsLikeTieZero(t *testing.T) {
	acc := NewAccumulator(130)
	v := Random(130, newTestSource(21))
	acc.Add(v)
	acc.Add(v.Not()) // every count zero → every dimension tied
	got := acc.Threshold(TieBreak(99), nil)
	if got.OnesCount() != 0 {
		t.Errorf("unknown TieBreak resolved ties to 1s: %d set bits", got.OnesCount())
	}
	// Majority must agree with the reference for unknown tie values too, at
	// a small operand count and at one that needs a seventh bit-plane.
	for _, k := range []int{2, 66} {
		vs := make([]*Vector, k)
		for i := range vs {
			if i%2 == 0 {
				vs[i] = v
			} else {
				vs[i] = v.Not()
			}
		}
		if !Majority(vs, TieBreak(99), nil).Equal(referenceMajority(vs, TieZero, nil)) {
			t.Errorf("k=%d: Majority diverges from reference for unknown TieBreak", k)
		}
	}
}

func TestDifferentialThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for _, d := range kernelDims {
		for _, tie := range []TieBreak{TieZero, TieOne, TieRandom} {
			acc := randomCounts(d, r)
			ref := NewAccumulator(d)
			copy(ref.counts, acc.counts)
			// Identical sources on both sides so TieRandom draws the same
			// coins; nil elsewhere to prove they are not consulted.
			var srcA, srcB Source
			if tie == TieRandom {
				srcA, srcB = newTestSource(7), newTestSource(7)
			}
			got := acc.Threshold(tie, srcA)
			want := ref.referenceThreshold(tie, srcB)
			if !got.Equal(want) {
				t.Fatalf("d=%d tie=%v: word-parallel Threshold diverges from reference", d, tie)
			}
		}
	}
}

func TestDifferentialThresholdTieVector(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	for _, d := range kernelDims {
		acc := randomCounts(d, r)
		ref := NewAccumulator(d)
		copy(ref.counts, acc.counts)
		tv := Random(d, newTestSource(9))
		if got, want := acc.ThresholdTieVector(tv), ref.referenceThresholdTieVector(tv); !got.Equal(want) {
			t.Fatalf("d=%d: word-parallel ThresholdTieVector diverges from reference", d)
		}
	}
}

func TestDifferentialMajorityCSA(t *testing.T) {
	// Every operand count from 1 to 130 at word-boundary dimensions and
	// d = 10000, in every tie mode and the tie-vector mode, with and
	// without keys. Every third operand complements the one before it, so
	// even counts tie often. The reference counts grow one operand at a
	// time, so each count k is checked against the first k operands.
	r := rand.New(rand.NewSource(404))
	for _, d := range []int{1, 63, 64, 65, 129, 777, 1000, 10000} {
		pool := make([]*Vector, 130)
		keys := make([]*Vector, len(pool))
		for i := range pool {
			if i%3 == 2 {
				pool[i] = pool[i-1].Not()
			} else {
				pool[i] = Random(d, newTestSource(r.Int63()))
			}
			keys[i] = Random(d, newTestSource(r.Int63()))
		}
		tv := Random(d, newTestSource(r.Int63()))
		for _, keyed := range []bool{false, true} {
			ref := NewAccumulator(d)
			for k := 1; k <= len(pool); k++ {
				vs := pool[:k]
				var ks []*Vector
				if keyed {
					ks = keys[:k]
					ref.referenceAddWeighted(keys[k-1].Xor(pool[k-1]), 1)
				} else {
					ref.referenceAddWeighted(pool[k-1], 1)
				}
				for _, tie := range []TieBreak{TieZero, TieOne, TieRandom} {
					got := New(d)
					if keyed {
						majorityCSA(got, vs, ks, tie, newTestSource(11), nil)
					} else {
						got = Majority(vs, tie, newTestSource(11))
					}
					if !got.Equal(ref.referenceThreshold(tie, newTestSource(11))) {
						t.Fatalf("d=%d k=%d tie=%v keyed=%v: kernel diverges from reference", d, k, tie, keyed)
					}
				}
				if !MajorityTieVector(vs, ks, tv).Equal(ref.referenceThresholdTieVector(tv)) {
					t.Fatalf("d=%d k=%d keyed=%v: MajorityTieVector diverges from reference", d, k, keyed)
				}
			}
		}
	}
}

func TestDifferentialMajorityCSABoundaryOperandCounts(t *testing.T) {
	// Operand counts on both sides of a bit-plane boundary (64 needs seven
	// planes, 128 eight, 256 nine), with ties forced by complementary pairs.
	r := rand.New(rand.NewSource(505))
	d := 321
	for _, k := range []int{63, 64, 65, 70, 127, 128, 129, 255, 256} {
		vs := make([]*Vector, 0, k+1)
		for len(vs)+1 < k {
			v := Random(d, newTestSource(r.Int63()))
			vs = append(vs, v, v.Not())
		}
		for len(vs) < k {
			vs = append(vs, Random(d, newTestSource(r.Int63())))
		}
		for _, tie := range []TieBreak{TieZero, TieOne, TieRandom} {
			var srcA, srcB Source
			if tie == TieRandom {
				srcA, srcB = newTestSource(13), newTestSource(13)
			}
			got := Majority(vs, tie, srcA)
			want := referenceMajority(vs, tie, srcB)
			if !got.Equal(want) {
				t.Fatalf("k=%d tie=%v: Majority diverges from reference at CSA boundary", k, tie)
			}
		}
	}
}

func TestDifferentialRotateBits(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for _, d := range kernelDims {
		v := Random(d, newTestSource(r.Int63()))
		ks := []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, d - 1, d / 2, d, d + 7, -1, -63, -d}
		for i := 0; i < 6; i++ {
			ks = append(ks, r.Intn(3*d)-d)
		}
		for _, k := range ks {
			kr := ((k % d) + d) % d
			got := v.RotateBits(k)
			want := v.referenceRotateBits(kr)
			if !got.Equal(want) {
				t.Fatalf("d=%d k=%d: word-parallel RotateBits diverges from reference", d, k)
			}
		}
	}
}

func TestRotateBitsRoundTripUnaligned(t *testing.T) {
	src := newTestSource(707)
	for _, d := range []int{65, 129, 10000} {
		v := Random(d, src)
		for _, k := range []int{1, 17, 64, d - 1} {
			if !v.RotateBits(k).RotateBits(-k).Equal(v) {
				t.Fatalf("d=%d k=%d: rotate round trip not identity", d, k)
			}
		}
	}
}

func TestNearestKernels(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	for _, d := range []int{1, 63, 64, 65, 500, 10000} {
		q := Random(d, newTestSource(r.Int63()))
		vs := make([]*Vector, 20)
		for i := range vs {
			vs[i] = Random(d, newTestSource(r.Int63()))
		}
		// Plant an exact duplicate of the winner later in the list to pin
		// tie-to-lowest-index behavior.
		wantIdx, wantHD := 0, d+1
		for i, v := range vs {
			if hd := q.HammingDistance(v); hd < wantHD {
				wantIdx, wantHD = i, hd
			}
		}
		vs = append(vs, vs[wantIdx].Clone())
		idx, hd := Nearest(q, vs)
		if idx != wantIdx || hd != wantHD {
			t.Fatalf("d=%d: Nearest = (%d,%d), want (%d,%d)", d, idx, hd, wantIdx, wantHD)
		}
		dst := DistanceMany(q, vs, nil)
		for i, v := range vs {
			if dst[i] != q.HammingDistance(v) {
				t.Fatalf("d=%d: DistanceMany[%d] = %d, want %d", d, i, dst[i], q.HammingDistance(v))
			}
		}
	}
}

func TestXorDistanceMatchesMaterializedBinding(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	for _, d := range []int{63, 64, 65, 1000} {
		x := Random(d, newTestSource(r.Int63()))
		y := Random(d, newTestSource(r.Int63()))
		vs := make([]*Vector, 9)
		for i := range vs {
			vs[i] = Random(d, newTestSource(r.Int63()))
		}
		bound := x.Xor(y)
		for _, z := range vs {
			if XorDistance(x, y, z) != bound.HammingDistance(z) {
				t.Fatalf("d=%d: XorDistance diverges from materialized binding", d)
			}
		}
		gotIdx, gotHD := NearestXor(x, y, vs)
		wantIdx, wantHD := Nearest(bound, vs)
		if gotIdx != wantIdx || gotHD != wantHD {
			t.Fatalf("d=%d: NearestXor = (%d,%d), want (%d,%d)", d, gotIdx, gotHD, wantIdx, wantHD)
		}
	}
}
