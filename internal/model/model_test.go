package model

import (
	"math"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dist"
	"hdcirc/internal/embed"
	"hdcirc/internal/rng"
	"hdcirc/internal/stats"
)

// noisy returns a copy of v with the given fraction of bits flipped.
func noisy(v *bitvec.Vector, frac float64, r *rng.Stream) *bitvec.Vector {
	out := v.Clone()
	n := int(frac * float64(v.Dim()))
	for i := 0; i < n; i++ {
		out.FlipBit(r.Intn(v.Dim()))
	}
	return out
}

func TestClassifierSeparatesNoisyPrototypes(t *testing.T) {
	d := 10000
	r := rng.New(1)
	k := 5
	protos := make([]*bitvec.Vector, k)
	for i := range protos {
		protos[i] = bitvec.Random(d, r)
	}
	c := NewClassifier(k, d, 2)
	for class, p := range protos {
		for s := 0; s < 20; s++ {
			c.Add(class, noisy(p, 0.2, r))
		}
	}
	correct := 0
	total := 0
	for class, p := range protos {
		for s := 0; s < 20; s++ {
			pred, dd := c.Predict(noisy(p, 0.25, r))
			if dd < 0 || dd > 1 {
				t.Fatalf("distance out of range: %v", dd)
			}
			if pred == class {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.99 {
		t.Errorf("accuracy %v on separable task, want ≈ 1", acc)
	}
}

func TestClassifierScores(t *testing.T) {
	d := 4096
	r := rng.New(3)
	c := NewClassifier(3, d, 4)
	vs := []*bitvec.Vector{bitvec.Random(d, r), bitvec.Random(d, r), bitvec.Random(d, r)}
	for i, v := range vs {
		c.Add(i, v)
	}
	scores := c.Scores(vs[1])
	if len(scores) != 3 {
		t.Fatalf("scores length %d", len(scores))
	}
	if scores[1] < scores[0] || scores[1] < scores[2] {
		t.Errorf("own class not highest: %v", scores)
	}
	// Single-sample class vector equals the sample itself.
	if scores[1] != 1 {
		t.Errorf("self score %v, want 1", scores[1])
	}
}

func TestClassifierClassVectorAndFinalize(t *testing.T) {
	d := 512
	r := rng.New(5)
	c := NewClassifier(2, d, 6)
	v := bitvec.Random(d, r)
	c.Add(0, v)
	if !c.ClassVector(0).Equal(v) {
		t.Error("single-sample class vector differs from sample")
	}
	// Adding after finalize invalidates and refreshes prototypes.
	w := v.Not()
	c.Add(0, w) // counts cancel → all ties → random resolution
	cv := c.ClassVector(0)
	if cv.Equal(v) || cv.Equal(w) {
		t.Log("tie-broken vector coincides with an operand; acceptable but unlikely")
	}
}

func TestClassifierDeterministicWithSeed(t *testing.T) {
	d := 2048
	build := func() *bitvec.Vector {
		r := rng.New(7)
		c := NewClassifier(2, d, 8)
		c.Add(0, bitvec.Random(d, r))
		c.Add(0, bitvec.Random(d, r)) // even count → ties possible
		return c.ClassVector(0)
	}
	if !build().Equal(build()) {
		t.Error("same-seed classifiers produced different prototypes")
	}
}

func TestClassifierRefineImprovesOverlappingClasses(t *testing.T) {
	// Two overlapping clusters: centroid model confuses some samples;
	// refinement must not reduce training accuracy.
	d := 10000
	r := rng.New(9)
	base := bitvec.Random(d, r)
	protoA := base
	protoB := noisy(base, 0.15, r) // heavily overlapping classes
	var hvs []*bitvec.Vector
	var labels []int
	for s := 0; s < 40; s++ {
		hvs = append(hvs, noisy(protoA, 0.12, r))
		labels = append(labels, 0)
		hvs = append(hvs, noisy(protoB, 0.12, r))
		labels = append(labels, 1)
	}
	trainAcc := func(c *Classifier) float64 {
		pred := make([]int, len(hvs))
		for i, hv := range hvs {
			pred[i], _ = c.Predict(hv)
		}
		return stats.Accuracy(pred, labels)
	}
	c := NewClassifier(2, d, 10)
	for i, hv := range hvs {
		c.Add(labels[i], hv)
	}
	before := trainAcc(c)
	updates := c.Refine(hvs, labels, 10)
	after := trainAcc(c)
	if after < before-1e-9 {
		t.Errorf("refinement reduced training accuracy: %v → %v", before, after)
	}
	if len(updates) == 0 {
		t.Error("no refinement epochs recorded")
	}
	for _, u := range updates {
		if u < 0 || u > len(hvs) {
			t.Errorf("update count %d out of range", u)
		}
	}
}

func TestClassifierRefineStopsWhenFit(t *testing.T) {
	d := 4096
	r := rng.New(11)
	a, b := bitvec.Random(d, r), bitvec.Random(d, r)
	c := NewClassifier(2, d, 12)
	c.Add(0, a)
	c.Add(1, b)
	updates := c.Refine([]*bitvec.Vector{a, b}, []int{0, 1}, 50)
	if len(updates) > 1 || updates[len(updates)-1] != 0 {
		t.Errorf("perfectly separable set should converge immediately: %v", updates)
	}
}

func TestClassifierPanics(t *testing.T) {
	cases := map[string]func(){
		"k=0":         func() { NewClassifier(0, 64, 1) },
		"d=0":         func() { NewClassifier(2, 0, 1) },
		"bad class":   func() { NewClassifier(2, 64, 1).Add(2, bitvec.New(64)) },
		"neg class":   func() { NewClassifier(2, 64, 1).Add(-1, bitvec.New(64)) },
		"bad lengths": func() { NewClassifier(2, 64, 1).Refine([]*bitvec.Vector{bitvec.New(64)}, nil, 1) },
	}
	for name, f := range cases {
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

func TestClassifierAccessors(t *testing.T) {
	c := NewClassifier(4, 128, 13)
	if c.NumClasses() != 4 || c.Dim() != 128 {
		t.Error("accessors wrong")
	}
}

func TestRegressorSinglePairExactRecovery(t *testing.T) {
	// One memorized pair unbinds exactly: M ⊗ φ(x) = φℓ(y).
	d := 10000
	xs := core.LevelSet(32, d, rng.New(14))
	ys := core.LevelSet(32, d, rng.New(15))
	xe := embed.NewScalarEncoder(xs, 0, 31)
	ye := embed.NewScalarEncoder(ys, 0, 31)
	reg := NewRegressor(d, 16)
	reg.Add(xe.Encode(8), ye.Encode(8))
	if reg.N() != 1 {
		t.Fatalf("N = %d, want 1", reg.N())
	}
	if got := reg.Predict(xe.Encode(8), ye); got != 8 {
		t.Errorf("single-pair decode = %v, want exactly 8", got)
	}
	if !reg.PredictVector(xe.Encode(8)).Equal(ye.Encode(8)) {
		t.Error("single-pair unbinding is not exact")
	}
}

// The bundled regressor acts as kernel-weighted median regression: the
// decode is pulled toward labels of x-similar training samples, with a
// kernel set by the basis geometry. These tests assert that behaviour
// rather than exact pointwise recovery, which the architecture does not (and per the paper's
// own MSE magnitudes, should not) deliver.
func TestRegressorTracksMonotoneFunction(t *testing.T) {
	d := 10000
	xs := core.LevelSet(32, d, rng.New(17))
	ys := core.LevelSet(32, d, rng.New(18))
	xe := embed.NewScalarEncoder(xs, 0, 31)
	ye := embed.NewScalarEncoder(ys, 0, 31)
	reg := NewRegressor(d, 19)
	for x := 0.0; x < 32; x++ {
		reg.Add(xe.Encode(x), ye.Encode(x))
	}
	// A single level feature has a kernel spanning the whole interval, so
	// shrinkage toward the weighted median is severe; what must survive is
	// the ordering and center accuracy.
	lo := reg.Predict(xe.Encode(2), ye)
	mid := reg.Predict(xe.Encode(16), ye)
	hi := reg.Predict(xe.Encode(29), ye)
	if !(lo <= mid && mid <= hi && lo < hi) {
		t.Errorf("predictions not ordered: %v %v %v", lo, mid, hi)
	}
	if math.Abs(mid-16) > 4 {
		t.Errorf("center prediction %v, want within 4 of 16", mid)
	}
}

func TestRegressorProductBindingSharpensKernel(t *testing.T) {
	// The paper's Beijing encoding binds several fields (Y ⊗ D ⊗ H); bound
	// encodings multiply their similarity kernels, localizing the weighted
	// median. Regressing y = x with a coarse ⊗ fine product encoding must
	// beat the single-feature encoding at off-center points.
	d := 10000
	stream := rng.New(23)
	coarse := embed.NewScalarEncoder(core.LevelSet(8, d, stream), 0, 7)
	fine := embed.NewScalarEncoder(core.LevelSet(8, d, stream), 0, 7)
	single := embed.NewScalarEncoder(core.LevelSet(64, d, stream), 0, 63)
	ye := embed.NewScalarEncoder(core.LevelSet(64, d, stream), 0, 63)

	prodEnc := func(x float64) *bitvec.Vector {
		c := math.Floor(x / 8)
		f := x - 8*c
		return coarse.Encode(c).Xor(fine.Encode(f))
	}
	regProd := NewRegressor(d, 24)
	regSingle := NewRegressor(d, 25)
	for x := 0.0; x < 64; x++ {
		regProd.Add(prodEnc(x), ye.Encode(x))
		regSingle.Add(single.Encode(x), ye.Encode(x))
	}
	var errProd, errSingle float64
	for _, q := range []float64{4, 12, 20, 44, 52, 60} {
		errProd += math.Abs(regProd.Predict(prodEnc(q), ye) - q)
		errSingle += math.Abs(regSingle.Predict(single.Encode(q), ye) - q)
	}
	if errProd >= errSingle {
		t.Errorf("product encoding error %v not below single-feature error %v", errProd, errSingle)
	}
}

func TestRegressorBeatsConstantBaseline(t *testing.T) {
	// On a sinusoid, the HDC regressor must beat always-predicting the
	// mean (MSE = variance).
	d := 10000
	stream := rng.New(20)
	xs := core.LevelSet(64, d, stream)
	ys := core.LevelSet(64, d, stream)
	xe := embed.NewScalarEncoder(xs, 0, 2*math.Pi)
	ye := embed.NewScalarEncoder(ys, -1.2, 1.2)
	reg := NewRegressor(d, 21)
	trainR := rng.New(22)
	truth := func(x float64) float64 { return math.Sin(x) }
	for i := 0; i < 400; i++ {
		x := dist.Uniform(trainR, 0, 2*math.Pi)
		reg.Add(xe.Encode(x), ye.Encode(truth(x)))
	}
	var se, vv float64
	n := 200
	for i := 0; i < n; i++ {
		x := dist.Uniform(trainR, 0, 2*math.Pi)
		p := reg.Predict(xe.Encode(x), ye)
		e := p - truth(x)
		se += e * e
		vv += truth(x) * truth(x) // mean of sin over [0,2π) is 0
	}
	mse := se / float64(n)
	variance := vv / float64(n)
	if mse >= variance {
		t.Errorf("regressor MSE %v does not beat constant-baseline variance %v", mse, variance)
	}
}

func TestRegressorModelVectorStable(t *testing.T) {
	d := 2048
	r := rng.New(20)
	reg := NewRegressor(d, 21)
	reg.Add(bitvec.Random(d, r), bitvec.Random(d, r))
	m1 := reg.Model()
	m2 := reg.Model()
	if !m1.Equal(m2) {
		t.Error("Model() not stable between calls")
	}
	reg.Add(bitvec.Random(d, r), bitvec.Random(d, r))
	_ = reg.Model() // must re-finalize without panicking
}

func TestRegressorDeterministicWithSeed(t *testing.T) {
	d := 1024
	build := func() *bitvec.Vector {
		r := rng.New(22)
		reg := NewRegressor(d, 23)
		reg.Add(bitvec.Random(d, r), bitvec.Random(d, r))
		reg.Add(bitvec.Random(d, r), bitvec.Random(d, r))
		return reg.Model()
	}
	if !build().Equal(build()) {
		t.Error("same-seed regressors differ")
	}
}

func TestRegressorAddAllocatesNothing(t *testing.T) {
	const d = 10000
	reg := NewRegressor(d, 26)
	src := rng.New(27)
	x, y := bitvec.Random(d, src), bitvec.Random(d, src)
	if n := testing.AllocsPerRun(20, func() { reg.Add(x, y) }); n != 0 {
		t.Errorf("Regressor.Add made %v allocations, want 0", n)
	}
}

func TestRegressorPredictAllocatesNothing(t *testing.T) {
	// After the first decode has built the label set's walk, a prediction
	// and a plain label decode allocate nothing.
	const d = 10000
	src := rng.New(28)
	labels := embed.NewScalarEncoder(core.LevelSet(128, d, src), 0, 1)
	reg := NewRegressor(d, 29)
	for i := 0; i < 8; i++ {
		reg.Add(bitvec.Random(d, src), labels.Encode(float64(i)/8))
	}
	x := bitvec.Random(d, src)
	reg.Predict(x, labels)
	if n := testing.AllocsPerRun(20, func() { reg.Predict(x, labels) }); n != 0 {
		t.Errorf("Regressor.Predict made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { labels.DecodeIndex(x) }); n != 0 {
		t.Errorf("ScalarEncoder.DecodeIndex made %v allocations, want 0", n)
	}
}

func TestRegressorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("d=0 did not panic")
		}
	}()
	NewRegressor(0, 1)
}

func TestRegressorCircularLabels(t *testing.T) {
	// End-to-end: angular feature through circular basis regressed onto a
	// linear label; checks the paper's Mars Express shape in miniature.
	d := 10000
	seedStream := rng.New(24)
	feat := embed.NewCircularEncoder(core.CircularSet(36, d, seedStream), 2*math.Pi)
	labels := embed.NewScalarEncoder(core.LevelSet(64, d, seedStream), -1, 1)
	reg := NewRegressor(d, 25)
	trainR := rng.New(26)
	for i := 0; i < 300; i++ {
		theta := dist.Uniform(trainR, 0, 2*math.Pi)
		y := math.Cos(theta)
		reg.Add(feat.Encode(theta), labels.Encode(y))
	}
	var se, vv, n float64
	for i := 0; i < 100; i++ {
		theta := dist.Uniform(trainR, 0, 2*math.Pi)
		got := reg.Predict(feat.Encode(theta), labels)
		e := got - math.Cos(theta)
		se += e * e
		vv += math.Cos(theta) * math.Cos(theta)
		n++
	}
	mse := se / n
	variance := vv / n
	// The broad circular kernel smooths heavily; require a clear win over
	// the constant baseline rather than pointwise accuracy.
	if mse >= 0.95*variance {
		t.Errorf("circular regression MSE %v not clearly below baseline variance %v", mse, variance)
	}
}
