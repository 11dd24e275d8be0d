package stats

import (
	"fmt"
	"math"
	"slices"
)

// RayleighTest tests the null hypothesis that an angular sample is uniform
// on the circle against a unimodal alternative. It returns the test
// statistic z = n·R̄² and an approximate p-value (Mardia & Jupp eq. 6.3.4,
// accurate for n ≳ 10). Small p rejects uniformity — i.e., the sample is
// directional. The dataset synthesizers use it to verify cluster structure.
func RayleighTest(angles []float64) (z, p float64) {
	if len(angles) < 2 {
		panic("stats: Rayleigh test needs at least 2 samples")
	}
	n := float64(len(angles))
	r := Circular(angles).Resultant
	z = n * r * r
	// Second-order correction to the exp(−z) approximation.
	p = math.Exp(-z) * (1 + (2*z-z*z)/(4*n) - (24*z-132*z*z+76*z*z*z-9*z*z*z*z)/(288*n*n))
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return z, p
}

// CircularCircularCorrelation computes the Fisher–Lee correlation
// coefficient between two angular samples:
//
//	ρ = Σ sin(a_i − ā) sin(b_i − b̄) / √(Σ sin²(a_i − ā) · Σ sin²(b_i − b̄))
//
// where ā, b̄ are the circular means. ρ ∈ [−1, 1]; 0 for independent
// directions. Used to verify that the gesture synthesizer's features are
// angularly associated within classes.
func CircularCircularCorrelation(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) < 3 {
		panic("stats: circular-circular correlation needs at least 3 samples")
	}
	am := Circular(a).Mean
	bm := Circular(b).Mean
	if math.IsNaN(am) || math.IsNaN(bm) {
		return 0 // undefined mean direction ⇒ no measurable association
	}
	var num, da, db float64
	for i := range a {
		sa := math.Sin(a[i] - am)
		sb := math.Sin(b[i] - bm)
		num += sa * sb
		da += sa * sa
		db += sb * sb
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted copy. Used by reporting code for robust
// summaries.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
