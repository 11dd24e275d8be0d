package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testSource adapts math/rand for deterministic test vectors.
type testSource struct{ r *rand.Rand }

func newTestSource(seed int64) *testSource {
	return &testSource{r: rand.New(rand.NewSource(seed))}
}

func (s *testSource) Uint64() uint64 { return s.r.Uint64() }

func TestNewDimensions(t *testing.T) {
	for _, d := range []int{1, 2, 63, 64, 65, 127, 128, 1000, 10000} {
		v := New(d)
		if v.Dim() != d {
			t.Errorf("d=%d: Dim()=%d", d, v.Dim())
		}
		if got, want := len(v.Words()), (d+63)/64; got != want {
			t.Errorf("d=%d: %d words, want %d", d, got, want)
		}
		if v.OnesCount() != 0 {
			t.Errorf("d=%d: new vector has %d ones", d, v.OnesCount())
		}
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1, -64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

func TestBitSetGetFlip(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.SetBit(i, 1)
	}
	for _, i := range idx {
		if v.Bit(i) != 1 {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.OnesCount() != len(idx) {
		t.Errorf("OnesCount=%d want %d", v.OnesCount(), len(idx))
	}
	for _, i := range idx {
		v.FlipBit(i)
	}
	if v.OnesCount() != 0 {
		t.Errorf("after flips OnesCount=%d want 0", v.OnesCount())
	}
	v.SetBit(5, 1)
	v.SetBit(5, 0)
	if v.Bit(5) != 0 {
		t.Error("SetBit(i,0) did not clear")
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	v := New(64)
	for _, i := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestNewFromBits(t *testing.T) {
	v := NewFromBits([]int{1, 0, 1, 1, 0})
	want := []int{1, 0, 1, 1, 0}
	for i, w := range want {
		if v.Bit(i) != w {
			t.Errorf("bit %d = %d, want %d", i, v.Bit(i), w)
		}
	}
	if v.Dim() != 5 {
		t.Errorf("Dim=%d want 5", v.Dim())
	}
}

func TestTailInvariantMaintained(t *testing.T) {
	src := newTestSource(1)
	for _, d := range []int{1, 63, 65, 100, 129} {
		v := Random(d, src)
		w := Random(d, src)
		for name, u := range map[string]*Vector{
			"xor":    v.Xor(w),
			"not":    v.Not(),
			"rotate": v.RotateBits(7),
		} {
			count := 0
			for i := 0; i < u.Dim(); i++ {
				count += u.Bit(i)
			}
			if count != u.OnesCount() {
				t.Errorf("d=%d %s: tail bits leaked (bitwise %d vs popcount %d)",
					d, name, count, u.OnesCount())
			}
		}
	}
}

func TestXorSelfInverse(t *testing.T) {
	src := newTestSource(2)
	a := Random(1000, src)
	b := Random(1000, src)
	if !a.Xor(a.Xor(b)).Equal(b) {
		t.Error("A ⊗ (A ⊗ B) != B")
	}
	if !a.Xor(a).Equal(New(1000)) {
		t.Error("A ⊗ A != 0")
	}
}

func TestXorCommutative(t *testing.T) {
	src := newTestSource(3)
	a, b := Random(777, src), Random(777, src)
	if !a.Xor(b).Equal(b.Xor(a)) {
		t.Error("XOR not commutative")
	}
}

func TestXorIntoAliasing(t *testing.T) {
	src := newTestSource(4)
	a, b := Random(200, src), Random(200, src)
	want := a.Xor(b)
	got := a.Clone()
	got.XorInPlace(b)
	if !got.Equal(want) {
		t.Error("XorInPlace differs from Xor")
	}
	// dst aliases second operand
	b2 := b.Clone()
	a.XorInto(b2, b2)
	if !b2.Equal(want) {
		t.Error("XorInto with aliased dst differs")
	}
}

func TestDistanceProperties(t *testing.T) {
	src := newTestSource(5)
	d := 4096
	a, b, c := Random(d, src), Random(d, src), Random(d, src)
	if a.Distance(a) != 0 {
		t.Error("δ(a,a) != 0")
	}
	if a.Distance(b) != b.Distance(a) {
		t.Error("distance not symmetric")
	}
	// Triangle inequality (Hamming is a metric).
	if a.Distance(c) > a.Distance(b)+b.Distance(c)+1e-12 {
		t.Error("triangle inequality violated")
	}
	if got := a.Distance(a.Not()); got != 1 {
		t.Errorf("δ(a,¬a) = %v, want 1", got)
	}
	// Similarity complement.
	if s, dd := a.Similarity(b), a.Distance(b); s+dd != 1 {
		t.Errorf("similarity+distance = %v, want 1", s+dd)
	}
}

func TestRandomVectorsQuasiOrthogonal(t *testing.T) {
	src := newTestSource(6)
	d := 10000
	a, b := Random(d, src), Random(d, src)
	dist := a.Distance(b)
	// Binomial(d, 1/2): sd ≈ 0.005 at d=10000; 8σ bound.
	if dist < 0.46 || dist > 0.54 {
		t.Errorf("random pair distance %v outside [0.46, 0.54]", dist)
	}
	// Ones should be about half.
	frac := float64(a.OnesCount()) / float64(d)
	if frac < 0.46 || frac > 0.54 {
		t.Errorf("random ones fraction %v outside [0.46, 0.54]", frac)
	}
}

func TestBindingPreservesDistance(t *testing.T) {
	// δ(a⊗c, b⊗c) == δ(a,b): binding is an isometry.
	src := newTestSource(7)
	d := 2048
	a, b, c := Random(d, src), Random(d, src), Random(d, src)
	if a.Xor(c).Distance(b.Xor(c)) != a.Distance(b) {
		t.Error("binding is not an isometry")
	}
}

func TestRotateBitsRoundTrip(t *testing.T) {
	src := newTestSource(8)
	for _, d := range []int{1, 64, 65, 100, 1000} {
		v := Random(d, src)
		for _, k := range []int{0, 1, 7, d - 1, d, d + 3, -1, -d} {
			r := v.RotateBits(k).RotateBits(-k)
			if !r.Equal(v) {
				t.Errorf("d=%d k=%d: rotate round-trip failed", d, k)
			}
		}
	}
}

func TestRotateBitsShiftsCorrectly(t *testing.T) {
	v := New(10)
	v.SetBit(0, 1)
	v.SetBit(9, 1)
	r := v.RotateBits(1)
	if r.Bit(1) != 1 || r.Bit(0) != 1 {
		t.Errorf("rotate misplaced bits: %v", r)
	}
	if r.OnesCount() != 2 {
		t.Errorf("rotation changed popcount: %d", r.OnesCount())
	}
}

func TestRotateBitsPreservesDistanceStructure(t *testing.T) {
	src := newTestSource(9)
	d := 1024
	a, b := Random(d, src), Random(d, src)
	if a.RotateBits(13).Distance(b.RotateBits(13)) != a.Distance(b) {
		t.Error("permutation is not an isometry")
	}
	// Rotation output should be dissimilar to the input for random vectors.
	if sim := a.Similarity(a.RotateBits(1)); sim > 0.6 {
		t.Errorf("rotated vector too similar to original: %v", sim)
	}
}

func TestCloneIndependence(t *testing.T) {
	src := newTestSource(12)
	v := Random(128, src)
	c := v.Clone()
	c.FlipBit(0)
	if v.Bit(0) == c.Bit(0) {
		t.Error("clone shares storage with original")
	}
}

func TestCopyFrom(t *testing.T) {
	src := newTestSource(13)
	v, w := Random(128, src), Random(128, src)
	v.CopyFrom(w)
	if !v.Equal(w) {
		t.Error("CopyFrom mismatch")
	}
}

func TestEqualDifferentDims(t *testing.T) {
	if New(64).Equal(New(65)) {
		t.Error("vectors of different dimension compare equal")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a, b := New(64), New(65)
	for name, f := range map[string]func(){
		"xor":      func() { a.Xor(b) },
		"distance": func() { a.Distance(b) },
		"copyfrom": func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestString(t *testing.T) {
	v := NewFromBits([]int{1, 0, 1})
	if got := v.String(); got != "101" {
		t.Errorf("String()=%q want %q", got, "101")
	}
	long := New(100)
	if s := long.String(); len(s) < 64 {
		t.Errorf("long String too short: %q", s)
	}
}

// Property-based tests via testing/quick.

func TestQuickXorSelfInverse(t *testing.T) {
	src := newTestSource(20)
	f := func(seedA, seedB uint16) bool {
		d := 512
		a := Random(d, newTestSource(int64(seedA)))
		b := Random(d, newTestSource(int64(seedB)))
		_ = src
		return a.Xor(a.Xor(b)).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceBounds(t *testing.T) {
	f := func(seedA, seedB uint16, dsel uint8) bool {
		d := 64 + int(dsel)%512
		a := Random(d, newTestSource(int64(seedA)))
		b := Random(d, newTestSource(int64(seedB)))
		dist := a.Distance(b)
		return dist >= 0 && dist <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRotationPopcountInvariant(t *testing.T) {
	f := func(seed uint16, k int16) bool {
		d := 300
		v := Random(d, newTestSource(int64(seed)))
		return v.RotateBits(int(k)).OnesCount() == v.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHammingMatchesNaive(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		d := 200
		a := Random(d, newTestSource(int64(seedA)))
		b := Random(d, newTestSource(int64(seedB)))
		naive := 0
		for i := 0; i < d; i++ {
			if a.Bit(i) != b.Bit(i) {
				naive++
			}
		}
		return naive == a.HammingDistance(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
