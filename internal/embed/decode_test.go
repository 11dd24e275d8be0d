package embed

import (
	"math"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

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
