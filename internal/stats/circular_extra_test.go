package stats

import (
	"math"
	"testing"

	"hdcirc/internal/rng"
)

func TestRayleighRejectsClustered(t *testing.T) {
	// Tight cluster → huge z, tiny p.
	angles := make([]float64, 50)
	r := rng.New(1)
	for i := range angles {
		angles[i] = 1.0 + 0.05*r.NormFloat64()
	}
	z, p := RayleighTest(angles)
	if z < 10 {
		t.Errorf("clustered z = %v, want large", z)
	}
	if p > 1e-6 {
		t.Errorf("clustered p = %v, want ≈ 0", p)
	}
}

func TestRayleighAcceptsUniform(t *testing.T) {
	r := rng.New(2)
	angles := make([]float64, 200)
	for i := range angles {
		angles[i] = r.Float64() * 2 * math.Pi
	}
	_, p := RayleighTest(angles)
	if p < 0.01 {
		t.Errorf("uniform sample rejected with p = %v", p)
	}
}

func TestRayleighPanicsTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=1 did not panic")
		}
	}()
	RayleighTest([]float64{1})
}

func TestCircularCircularCorrelationPositive(t *testing.T) {
	// b = a + constant offset → perfect positive association.
	r := rng.New(3)
	n := 300
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() * 2 * math.Pi
		b[i] = math.Mod(a[i]+0.7, 2*math.Pi)
	}
	if rho := CircularCircularCorrelation(a, b); rho < 0.95 {
		t.Errorf("offset association ρ = %v, want ≈ 1", rho)
	}
}

func TestCircularCircularCorrelationNegative(t *testing.T) {
	// b = −a → perfect negative association.
	r := rng.New(4)
	n := 300
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() * 2 * math.Pi
		b[i] = math.Mod(2*math.Pi-a[i], 2*math.Pi)
	}
	if rho := CircularCircularCorrelation(a, b); rho > -0.95 {
		t.Errorf("reflected association ρ = %v, want ≈ −1", rho)
	}
}

func TestCircularCircularCorrelationIndependent(t *testing.T) {
	r := rng.New(5)
	n := 2000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		// Concentrated samples so circular means are well-defined.
		a[i] = 1 + 0.5*r.NormFloat64()
		b[i] = 4 + 0.5*r.NormFloat64()
	}
	if rho := CircularCircularCorrelation(a, b); math.Abs(rho) > 0.08 {
		t.Errorf("independent ρ = %v, want ≈ 0", rho)
	}
}

func TestCircularCircularCorrelationPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		CircularCircularCorrelation([]float64{1, 2, 3}, []float64{1, 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("tiny sample did not panic")
			}
		}()
		CircularCircularCorrelation([]float64{1, 2}, []float64{1, 2})
	}()
}

func TestQuantileBasics(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("q1 = %v", got)
	}
	med := Quantile(xs, 0.5)
	if med < 3 || med > 4 {
		t.Errorf("median = %v, want in [3,4]", med)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty did not panic")
			}
		}()
		Quantile(nil, 0.5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("q>1 did not panic")
			}
		}()
		Quantile([]float64{1}, 1.5)
	}()
}

func TestQuicksortLargeSlice(t *testing.T) {
	r := rng.New(6)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()
	}
	q := Quantile(xs, 0.5)
	if q < 0.4 || q > 0.6 {
		t.Errorf("median of uniforms = %v, want ≈ 0.5", q)
	}
}
