package bitvec

import (
	"testing"
	"testing/quick"
)

func TestMajorityOdd(t *testing.T) {
	a := NewFromBits([]int{1, 1, 0, 0, 1})
	b := NewFromBits([]int{1, 0, 1, 0, 1})
	c := NewFromBits([]int{0, 1, 1, 0, 0})
	m := Majority([]*Vector{a, b, c}, nil)
	want := []int{1, 1, 1, 0, 1}
	for i, w := range want {
		if m.Bit(i) != w {
			t.Errorf("bit %d = %d, want %d", i, m.Bit(i), w)
		}
	}
}

// constSource hands out the same coin word on every draw.
type constSource uint64

func (c constSource) Uint64() uint64 { return uint64(c) }

func TestMajorityTieBreaks(t *testing.T) {
	// Complementary operands tie at every position, so each output bit is
	// its coin: all-ones coins set every bit, all-zero coins none.
	a := NewFromBits([]int{1, 0, 1})
	b := a.Not()
	if m := Majority([]*Vector{a, b}, constSource(0)); m.OnesCount() != 0 {
		t.Errorf("zero coins produced ones: %v", m)
	}
	if m := Majority([]*Vector{a, b}, constSource(^uint64(0))); m.OnesCount() != 3 {
		t.Errorf("one coins produced zeros: %v", m)
	}
	// Coins are consumed in dimension order, low bit first.
	if m := Majority([]*Vector{a, b}, constSource(0b110)); !m.Equal(NewFromBits([]int{0, 1, 1})) {
		t.Errorf("coins 0b110 resolved to %v", m)
	}
}

func TestMajorityTieRandomIsFair(t *testing.T) {
	// Two complementary random vectors: every dimension ties; the resolved
	// vector should be about half ones.
	src := newTestSource(43)
	d := 10000
	a := Random(d, src)
	b := a.Not()
	m := Majority([]*Vector{a, b}, src)
	frac := float64(m.OnesCount()) / float64(d)
	if frac < 0.46 || frac > 0.54 {
		t.Errorf("tie coin fraction %v outside [0.46,0.54]", frac)
	}
}

func TestMajorityPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty Majority did not panic")
			}
		}()
		Majority(nil, nil)
	}()
	func() {
		defer func() {
			if recover() != errNoTieSource {
				t.Error("even operand count without source did not panic")
			}
		}()
		Majority([]*Vector{New(8), New(8)}, nil)
	}()
	func() {
		defer func() {
			if recover() != errNoTieSource {
				t.Error("Threshold of an even count without source did not panic")
			}
		}()
		NewAccumulator(8).Threshold(nil)
	}()
}

func TestMajorityOfSingle(t *testing.T) {
	src := newTestSource(44)
	v := Random(100, src)
	if !Majority([]*Vector{v}, nil).Equal(v) {
		t.Error("majority of one vector != that vector")
	}
}

func TestMajoritySimilarToOperands(t *testing.T) {
	// Bundling's defining property: the bundle is similar to each operand
	// (≈0.75 similarity for 3 random operands) and dissimilar to an
	// unrelated vector (≈0.5).
	src := newTestSource(45)
	d := 10000
	vs := []*Vector{Random(d, src), Random(d, src), Random(d, src)}
	m := Majority(vs, nil)
	for i, v := range vs {
		sim := m.Similarity(v)
		if sim < 0.70 || sim > 0.80 {
			t.Errorf("operand %d similarity %v outside [0.70,0.80]", i, sim)
		}
	}
	if sim := m.Similarity(Random(d, src)); sim < 0.46 || sim > 0.54 {
		t.Errorf("unrelated similarity %v outside [0.46,0.54]", sim)
	}
}

func TestBindDistributesOverBundle(t *testing.T) {
	// c ⊗ maj(a1,a2,a3) == maj(c⊗a1, c⊗a2, c⊗a3): XOR flips the same
	// positions in every operand, so the majority commutes with binding.
	src := newTestSource(46)
	d := 512
	a1, a2, a3, c := Random(d, src), Random(d, src), Random(d, src), Random(d, src)
	left := c.Xor(Majority([]*Vector{a1, a2, a3}, nil))
	right := Majority([]*Vector{c.Xor(a1), c.Xor(a2), c.Xor(a3)}, nil)
	if !left.Equal(right) {
		t.Error("binding does not distribute over bundling")
	}
}

func TestAccumulatorMatchesMajority(t *testing.T) {
	src := newTestSource(47)
	d := 777
	vs := make([]*Vector, 9)
	for i := range vs {
		vs[i] = Random(d, src)
	}
	acc := NewAccumulator(d)
	for _, v := range vs {
		acc.Add(v)
	}
	if !acc.Threshold(nil).Equal(Majority(vs, nil)) {
		t.Error("accumulator threshold != Majority")
	}
	if acc.N() != len(vs) {
		t.Errorf("N=%d want %d", acc.N(), len(vs))
	}
}

func TestAccumulatorSubUndoesAdd(t *testing.T) {
	src := newTestSource(48)
	d := 256
	a, b, c := Random(d, src), Random(d, src), Random(d, src)
	acc := NewAccumulator(d)
	acc.Add(a)
	acc.Add(b)
	acc.Add(c)
	acc.Sub(c)
	ref := NewAccumulator(d)
	ref.Add(a)
	ref.Add(b)
	for i := range acc.Counts() {
		if acc.Counts()[i] != ref.Counts()[i] {
			t.Fatalf("count %d differs after Sub: %d vs %d", i, acc.Counts()[i], ref.Counts()[i])
		}
	}
	if acc.N() != 2 {
		t.Errorf("N=%d want 2", acc.N())
	}
}

func TestAccumulatorWeighted(t *testing.T) {
	src := newTestSource(49)
	d := 128
	v := Random(d, src)
	acc := NewAccumulator(d)
	acc.AddWeighted(v, 3)
	ref := NewAccumulator(d)
	ref.Add(v)
	ref.Add(v)
	ref.Add(v)
	for i := range acc.Counts() {
		if acc.Counts()[i] != ref.Counts()[i] {
			t.Fatal("AddWeighted(3) != three Adds")
		}
	}
}

func TestAccumulatorReset(t *testing.T) {
	src := newTestSource(50)
	acc := NewAccumulator(64)
	acc.Add(Random(64, src))
	acc.Reset()
	if acc.N() != 0 {
		t.Errorf("N after reset = %d", acc.N())
	}
	for _, c := range acc.Counts() {
		if c != 0 {
			t.Fatal("counts not cleared")
		}
	}
}

func TestAccumulatorThresholdTies(t *testing.T) {
	acc := NewAccumulator(4)
	a := NewFromBits([]int{1, 1, 0, 0})
	acc.Add(a)
	acc.Add(a.Not())
	// All counts zero → all ties, each resolved by its coin.
	if v := acc.Threshold(constSource(^uint64(0))); v.OnesCount() != 4 {
		t.Errorf("one coins gave %v", v)
	}
	if v := acc.Threshold(constSource(0)); v.OnesCount() != 0 {
		t.Errorf("zero coins gave %v", v)
	}
}

func TestAccumulatorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("accumulator dim mismatch did not panic")
		}
	}()
	NewAccumulator(64).Add(New(65))
}

func TestQuickMajorityBetweenBounds(t *testing.T) {
	// The majority's per-dimension value always equals one of the operands'
	// values when they agree.
	f := func(seedA, seedB, seedC uint16) bool {
		d := 333
		a := Random(d, newTestSource(int64(seedA)))
		b := Random(d, newTestSource(int64(seedB)))
		c := Random(d, newTestSource(int64(seedC)))
		m := Majority([]*Vector{a, b, c}, nil)
		for i := 0; i < d; i++ {
			if a.Bit(i) == b.Bit(i) && b.Bit(i) == c.Bit(i) && m.Bit(i) != a.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAccumulatorOrderIndependent(t *testing.T) {
	f := func(seedA, seedB, seedC uint16) bool {
		d := 200
		a := Random(d, newTestSource(int64(seedA)))
		b := Random(d, newTestSource(int64(seedB)))
		c := Random(d, newTestSource(int64(seedC)))
		x := NewAccumulator(d)
		x.Add(a)
		x.Add(b)
		x.Add(c)
		y := NewAccumulator(d)
		y.Add(c)
		y.Add(a)
		y.Add(b)
		return x.Threshold(nil).Equal(y.Threshold(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdTieVector(t *testing.T) {
	acc := NewAccumulator(4)
	a := NewFromBits([]int{1, 1, 0, 0})
	acc.Add(a)
	acc.Add(a.Not()) // all counts zero → every dimension ties
	tv := NewFromBits([]int{1, 0, 1, 0})
	got := acc.Threshold(constSource(0)) // baseline: all zero
	if got.OnesCount() != 0 {
		t.Fatal("baseline wrong")
	}
	got = acc.ThresholdTieVector(tv)
	if !got.Equal(tv) {
		t.Errorf("all-tie threshold should copy the tie vector, got %v", got)
	}
	// Non-tied dimensions ignore the tie vector.
	acc2 := NewAccumulator(4)
	acc2.Add(a)
	if !acc2.ThresholdTieVector(tv).Equal(a) {
		t.Error("tie vector leaked into non-tied dimensions")
	}
}

func TestThresholdTieVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	NewAccumulator(4).ThresholdTieVector(New(5))
}

func TestThresholdTieVectorOrderIndependent(t *testing.T) {
	src := newTestSource(60)
	d := 512
	tv := Random(d, src)
	a, b := Random(d, src), Random(d, src)
	x := NewAccumulator(d)
	x.Add(a)
	x.Add(b)
	y := NewAccumulator(d)
	y.Add(b)
	y.Add(a)
	if !x.ThresholdTieVector(tv).Equal(y.ThresholdTieVector(tv)) {
		t.Error("tie-vector threshold depends on accumulation order")
	}
}
