package stats

import (
	"math"
	"testing"

	"hdcirc/internal/rng"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if got := Accuracy([]int{1}, []int{1}); got != 1 {
		t.Errorf("Accuracy = %v, want 1", got)
	}
}

func TestAccuracyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mismatch": func() { Accuracy([]int{1}, []int{1, 2}) },
		"empty":    func() { Accuracy(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMSEAndFriends(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 4, 0}
	if got := MSE(pred, truth); math.Abs(got-13.0/3) > 1e-12 {
		t.Errorf("MSE = %v, want %v", got, 13.0/3)
	}
	if got := MAE(pred, truth); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("MAE = %v, want %v", got, 5.0/3)
	}
	if MSE([]float64{2}, []float64{2}) != 0 {
		t.Error("MSE of identical vectors != 0")
	}
}

func TestNormalizedMetrics(t *testing.T) {
	if got := NormalizedAccuracyError(0.9, 0.8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("normalized accuracy error = %v, want 0.5", got)
	}
	if got := NormalizedAccuracyError(0.8, 0.8); got != 1 {
		t.Errorf("same accuracy should normalize to 1, got %v", got)
	}
	if got := NormalizedMSE(5, 10); got != 0.5 {
		t.Errorf("NormalizedMSE = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("perfect reference accuracy did not panic")
			}
		}()
		NormalizedAccuracyError(0.5, 1.0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero reference MSE did not panic")
			}
		}()
		NormalizedMSE(1, 0)
	}()
}

func TestConfusion(t *testing.T) {
	c := NewConfusion(3)
	c.Observe(0, 0)
	c.Observe(0, 1)
	c.Observe(1, 1)
	c.Observe(2, 2)
	c.Observe(2, 2)
	if c.Total() != 5 {
		t.Errorf("Total = %d", c.Total())
	}
	if c.At(0, 1) != 1 || c.At(2, 2) != 2 {
		t.Error("At returns wrong counts")
	}
	if got := c.Accuracy(); got != 0.8 {
		t.Errorf("Accuracy = %v, want 0.8", got)
	}
	rec := c.PerClassRecall()
	if rec[0] != 0.5 || rec[1] != 1 || rec[2] != 1 {
		t.Errorf("recall = %v", rec)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	c := NewConfusion(2)
	if c.Accuracy() != 0 {
		t.Error("empty confusion accuracy != 0")
	}
	if !math.IsNaN(c.PerClassRecall()[0]) {
		t.Error("recall of unseen class should be NaN")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range class did not panic")
			}
		}()
		c.Observe(2, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k=0 confusion did not panic")
			}
		}()
		NewConfusion(0)
	}()
}

func TestCircularSummary(t *testing.T) {
	// Tight cluster at π/2.
	angles := []float64{math.Pi/2 - 0.01, math.Pi / 2, math.Pi/2 + 0.01}
	s := Circular(angles)
	if math.Abs(s.Mean-math.Pi/2) > 1e-6 {
		t.Errorf("Mean = %v, want π/2", s.Mean)
	}
	if s.Resultant < 0.999 {
		t.Errorf("Resultant = %v, want ≈ 1", s.Resultant)
	}
	if s.Variance > 0.001 {
		t.Errorf("Variance = %v, want ≈ 0", s.Variance)
	}
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
}

func TestCircularMeanWrapsCorrectly(t *testing.T) {
	// Angles straddling 0: linear mean would be π (wrong); circular mean
	// must be ≈ 0.
	angles := []float64{0.1, 2*math.Pi - 0.1}
	s := Circular(angles)
	diff := math.Min(s.Mean, 2*math.Pi-s.Mean)
	if diff > 1e-9 {
		t.Errorf("circular mean of straddling sample = %v, want ≈ 0", s.Mean)
	}
}

func TestCircularAntipodal(t *testing.T) {
	s := Circular([]float64{0, math.Pi})
	if s.Resultant > 1e-9 {
		t.Errorf("antipodal resultant = %v, want 0", s.Resultant)
	}
	if !math.IsNaN(s.Mean) {
		t.Errorf("antipodal mean should be NaN, got %v", s.Mean)
	}
	if math.Abs(s.Variance-1) > 1e-9 {
		t.Errorf("antipodal variance = %v, want 1", s.Variance)
	}
}

func TestCircularLinearCorrelationPerfect(t *testing.T) {
	// x = cos θ is perfectly circular-linearly associated.
	n := 500
	theta := make([]float64, n)
	x := make([]float64, n)
	for i := range theta {
		theta[i] = 2 * math.Pi * float64(i) / float64(n)
		x[i] = math.Cos(theta[i])
	}
	if r2 := CircularLinearCorrelation(theta, x); r2 < 0.999 {
		t.Errorf("R² = %v, want ≈ 1", r2)
	}
}

func TestCircularLinearCorrelationPhaseShift(t *testing.T) {
	// A phase-shifted sinusoid is still perfectly associated (that is the
	// point of using both cos and sin regressors).
	n := 500
	theta := make([]float64, n)
	x := make([]float64, n)
	for i := range theta {
		theta[i] = 2 * math.Pi * float64(i) / float64(n)
		x[i] = 3 * math.Sin(theta[i]+1.1)
	}
	if r2 := CircularLinearCorrelation(theta, x); r2 < 0.999 {
		t.Errorf("R² = %v, want ≈ 1", r2)
	}
}

func TestCircularLinearCorrelationIndependent(t *testing.T) {
	// A constant response carries no association.
	theta := []float64{0.1, 1.3, 2.2, 3.9, 5.5}
	x := []float64{2, 2, 2, 2, 2}
	if r2 := CircularLinearCorrelation(theta, x); r2 != 0 {
		t.Errorf("R² = %v, want 0 for constant x", r2)
	}
}

func TestCircularLinearCorrelationPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		CircularLinearCorrelation([]float64{1, 2, 3}, []float64{1, 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("tiny sample did not panic")
			}
		}()
		CircularLinearCorrelation([]float64{1, 2}, []float64{1, 2})
	}()
}

func TestCircularPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty circular summary did not panic")
		}
	}()
	Circular(nil)
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
