// Package stats provides the evaluation metrics used by the experiment
// harness (accuracy, confusion matrices, squared-error measures, normalized
// errors as defined in the paper's Section 6.3) plus the small directional-
// statistics toolkit (circular mean, resultant length, circular variance,
// the paper's circular distance ρ, and circular–linear correlation) that the
// dataset synthesizers and their tests rely on.
package stats

import (
	"fmt"
	"math"
)

// ---------------------------------------------------------------------------
// Linear metrics
// ---------------------------------------------------------------------------

// Accuracy returns the fraction of positions where pred equals truth. It
// panics on length mismatch or empty input: those are harness bugs.
func Accuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: prediction/truth length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		panic("stats: accuracy of empty slice")
	}
	hits := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// MSE returns the mean squared error between predictions and truth.
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: prediction/truth length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		panic("stats: MSE of empty slice")
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: prediction/truth length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		panic("stats: MAE of empty slice")
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root mean squared error.
func RMSE(pred, truth []float64) float64 { return math.Sqrt(MSE(pred, truth)) }

// NormalizedAccuracyError implements the paper's Figure 8 metric
// (1−α)/(1−ᾱ): the error rate of a model normalized by the error rate of
// the reference model (random-hypervectors in the paper). A reference
// accuracy of exactly 1 would divide by zero; the harness never normalizes
// against a perfect reference, so that panics.
func NormalizedAccuracyError(acc, refAcc float64) float64 {
	if refAcc >= 1 {
		panic("stats: normalized accuracy error against a perfect reference")
	}
	return (1 - acc) / (1 - refAcc)
}

// NormalizedMSE returns mse/refMSE, the Figure 7/8 regression metric.
func NormalizedMSE(mse, refMSE float64) float64 {
	if refMSE <= 0 {
		panic("stats: normalized MSE against non-positive reference")
	}
	return mse / refMSE
}

// Mean returns the arithmetic mean of xs; it panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// ---------------------------------------------------------------------------
// Confusion matrix
// ---------------------------------------------------------------------------

// Confusion is a k×k confusion matrix: rows are true classes, columns are
// predicted classes.
type Confusion struct {
	k      int
	counts []int
}

// NewConfusion returns an empty confusion matrix over k classes.
func NewConfusion(k int) *Confusion {
	if k <= 0 {
		panic(fmt.Sprintf("stats: confusion over %d classes", k))
	}
	return &Confusion{k: k, counts: make([]int, k*k)}
}

// Observe records a (truth, prediction) pair.
func (c *Confusion) Observe(truth, pred int) {
	if truth < 0 || truth >= c.k || pred < 0 || pred >= c.k {
		panic(fmt.Sprintf("stats: class out of range: truth=%d pred=%d k=%d", truth, pred, c.k))
	}
	c.counts[truth*c.k+pred]++
}

// At returns the count of samples with the given truth predicted as pred.
func (c *Confusion) At(truth, pred int) int { return c.counts[truth*c.k+pred] }

// Total returns the number of observed samples.
func (c *Confusion) Total() int {
	t := 0
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Accuracy returns the trace ratio of the matrix; 0 when empty.
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < c.k; i++ {
		diag += c.counts[i*c.k+i]
	}
	return float64(diag) / float64(total)
}

// PerClassRecall returns recall per true class (NaN for unseen classes).
func (c *Confusion) PerClassRecall() []float64 {
	out := make([]float64, c.k)
	for i := 0; i < c.k; i++ {
		row := 0
		for j := 0; j < c.k; j++ {
			row += c.counts[i*c.k+j]
		}
		if row == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(c.counts[i*c.k+i]) / float64(row)
	}
	return out
}

// ---------------------------------------------------------------------------
// Directional statistics
// ---------------------------------------------------------------------------

// CircularDistance implements the paper's ρ(α, β) = (1 − cos(α−β))/2, a
// normalized distance in [0,1] between two angles; 0 for identical
// directions, 1 for opposite directions.
func CircularDistance(alpha, beta float64) float64 {
	return (1 - math.Cos(alpha-beta)) / 2
}

// ArcDistance returns the normalized arc-length distance in [0, 1]:
// min(|α−β| mod 2π, 2π − |α−β| mod 2π) / π. This is the profile the
// two-phase circular construction actually realizes (per set, see
// core.CircularExpectedDistance).
func ArcDistance(alpha, beta float64) float64 {
	d := math.Mod(math.Abs(alpha-beta), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d / math.Pi
}

// CircularSummary holds the first trigonometric moment of an angle sample.
type CircularSummary struct {
	Mean      float64 // mean direction in [0, 2π); NaN when the resultant is 0
	Resultant float64 // mean resultant length R̄ ∈ [0,1]
	Variance  float64 // circular variance 1 − R̄
	N         int
}

// Circular computes the sample circular mean, resultant length and circular
// variance of the given angles (radians).
func Circular(angles []float64) CircularSummary {
	if len(angles) == 0 {
		panic("stats: circular summary of empty sample")
	}
	var c, s float64
	for _, a := range angles {
		c += math.Cos(a)
		s += math.Sin(a)
	}
	n := float64(len(angles))
	c /= n
	s /= n
	r := math.Hypot(c, s)
	mean := math.NaN()
	// Treat a numerically vanishing resultant as zero: the mean direction of
	// a balanced (e.g. antipodal) sample is undefined.
	if r < 1e-12 {
		r = 0
	}
	if r > 0 {
		mean = math.Atan2(s, c)
		if mean < 0 {
			mean += 2 * math.Pi
		}
	}
	return CircularSummary{Mean: mean, Resultant: r, Variance: 1 - r, N: len(angles)}
}

// CircularLinearCorrelation computes the squared correlation R² between a
// circular predictor θ and a linear response x (Mardia's r², via the
// correlations of x with cos θ and sin θ). It is the statistic behind the
// paper's claim that day-of-year and hour-of-day are "circular-linear
// correlated" with temperature; the Beijing synthesizer's tests assert it
// is high.
func CircularLinearCorrelation(theta, x []float64) float64 {
	if len(theta) != len(x) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(theta), len(x)))
	}
	if len(theta) < 3 {
		panic("stats: circular-linear correlation needs at least 3 samples")
	}
	cs := make([]float64, len(theta))
	sn := make([]float64, len(theta))
	for i, t := range theta {
		cs[i] = math.Cos(t)
		sn[i] = math.Sin(t)
	}
	rxc := pearson(x, cs)
	rxs := pearson(x, sn)
	rcs := pearson(cs, sn)
	den := 1 - rcs*rcs
	if den == 0 {
		return 0
	}
	r2 := (rxc*rxc + rxs*rxs - 2*rxc*rxs*rcs) / den
	if r2 < 0 {
		return 0
	}
	if r2 > 1 {
		return 1
	}
	return r2
}

// pearson returns the Pearson correlation of a and b, 0 when degenerate.
func pearson(a, b []float64) float64 {
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		xa, xb := a[i]-ma, b[i]-mb
		num += xa * xb
		da += xa * xa
		db += xb * xb
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}
