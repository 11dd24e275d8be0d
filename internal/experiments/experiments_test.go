package experiments

import (
	"math"
	"strings"
	"testing"

	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
)

// Reduced-size configs keep the suite fast while preserving every shape
// assertion; pin_test.go pins the full-size Table 1 and 2 cells.

func fastClassify() ClassifyConfig {
	c := DefaultClassifyConfig()
	c.D = 4096
	return c
}

func fastGesture(task string) dataset.GestureConfig {
	g := dataset.DefaultGestureConfig(task)
	g.TrainPerGesture = 12
	g.TestPerGesture = 8
	return g
}

func fastRegress() RegressConfig {
	c := DefaultRegressConfig()
	c.D = 4096
	return c
}

func fastTemp() dataset.TempConfig {
	c := dataset.DefaultTempConfig()
	c.HourStep = 12
	return c
}

func fastOrbit() dataset.OrbitConfig {
	c := dataset.DefaultOrbitConfig()
	c.N = 900
	return c
}

func TestRunGestureClassificationBetterThanChance(t *testing.T) {
	ds := dataset.GenGestures(fastGesture("Knot Tying"), DefaultSeed)
	res := RunGestureClassification(ds, core.KindCircular, fastClassify())
	if res.Accuracy < 0.5 {
		t.Errorf("circular accuracy %v suspiciously low (chance = 1/15)", res.Accuracy)
	}
	if res.Conf.Total() != len(ds.Test) {
		t.Errorf("confusion total %d != test size %d", res.Conf.Total(), len(ds.Test))
	}
	if res.Task != "Knot Tying" || res.Kind != core.KindCircular {
		t.Errorf("metadata wrong: %+v", res)
	}
}

func TestRunGestureClassificationCircularWins(t *testing.T) {
	// The paper's headline (Table 1): circular beats random and level on
	// every surgical task.
	for _, task := range Tasks {
		ds := dataset.GenGestures(fastGesture(task), DefaultSeed)
		cfg := fastClassify()
		cfg.R = 0.1
		circ := RunGestureClassification(ds, core.KindCircular, cfg)
		cfg.R = 0
		rand := RunGestureClassification(ds, core.KindRandom, cfg)
		lvl := RunGestureClassification(ds, core.KindLevel, cfg)
		if circ.Accuracy <= rand.Accuracy {
			t.Errorf("%s: circular %v not above random %v", task, circ.Accuracy, rand.Accuracy)
		}
		if circ.Accuracy <= lvl.Accuracy {
			t.Errorf("%s: circular %v not above level %v", task, circ.Accuracy, lvl.Accuracy)
		}
	}
}

func TestRunGestureClassificationDeterministic(t *testing.T) {
	ds := dataset.GenGestures(fastGesture("Suturing"), DefaultSeed)
	a := RunGestureClassification(ds, core.KindLevel, fastClassify())
	b := RunGestureClassification(ds, core.KindLevel, fastClassify())
	if a.Accuracy != b.Accuracy {
		t.Errorf("same-seed runs differ: %v vs %v", a.Accuracy, b.Accuracy)
	}
}

func TestRunGestureClassificationRefinementDoesNotHurt(t *testing.T) {
	ds := dataset.GenGestures(fastGesture("Knot Tying"), DefaultSeed)
	base := fastClassify()
	refined := base
	refined.RefineEpochs = 5
	a := RunGestureClassification(ds, core.KindCircular, base)
	b := RunGestureClassification(ds, core.KindCircular, refined)
	// Online refinement fits the training set harder; on this workload it
	// must not collapse test accuracy (allow small regressions from
	// overfitting the train surgeon).
	if b.Accuracy < a.Accuracy-0.1 {
		t.Errorf("refinement collapsed accuracy: %v → %v", a.Accuracy, b.Accuracy)
	}
}

func TestRunTemperatureRegressionOrdering(t *testing.T) {
	// Table 2 row 1 shape: circular < level < random MSE.
	temps := dataset.GenTemperature(fastTemp(), DefaultSeed)
	cfg := fastRegress()
	cfg.R = 0.01
	circ := RunTemperatureRegression(temps, core.KindCircular, cfg)
	cfg.R = 0
	lvl := RunTemperatureRegression(temps, core.KindLevel, cfg)
	rnd := RunTemperatureRegression(temps, core.KindRandom, cfg)
	if !(circ.MSE < lvl.MSE && lvl.MSE < rnd.MSE) {
		t.Errorf("ordering violated: circular %v, level %v, random %v", circ.MSE, lvl.MSE, rnd.MSE)
	}
	if circ.MAE <= 0 || circ.MAE > math.Sqrt(circ.MSE)+1e-9 {
		t.Errorf("MAE %v inconsistent with MSE %v", circ.MAE, circ.MSE)
	}
}

func TestRunOrbitRegressionOrdering(t *testing.T) {
	// Table 2 row 2 shape: random is far worst; circular beats level.
	orbits := dataset.GenOrbitPower(fastOrbit(), DefaultSeed)
	cfg := fastRegress()
	cfg.R = 0.01
	circ := RunOrbitRegression(orbits, core.KindCircular, cfg)
	cfg.R = 0
	lvl := RunOrbitRegression(orbits, core.KindLevel, cfg)
	rnd := RunOrbitRegression(orbits, core.KindRandom, cfg)
	if rnd.MSE <= lvl.MSE || rnd.MSE <= circ.MSE {
		t.Errorf("random %v should be far worst (level %v, circular %v)", rnd.MSE, lvl.MSE, circ.MSE)
	}
	if circ.MSE >= lvl.MSE*1.1 {
		t.Errorf("circular %v should not lose clearly to level %v", circ.MSE, lvl.MSE)
	}
}

func TestRunTable1ShapeAndRanges(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Classify = fastClassify()
	cfg.Gesture = fastGesture("")
	res := RunTable1(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, k := range Table1Basis {
			a, ok := row.Accuracy[k]
			if !ok {
				t.Fatalf("%s missing %v accuracy", row.Task, k)
			}
			if a < 0 || a > 1 {
				t.Fatalf("%s %v accuracy %v out of range", row.Task, k, a)
			}
		}
		if row.Accuracy[core.KindCircular] <= row.Accuracy[core.KindRandom] {
			t.Errorf("%s: circular does not beat random", row.Task)
		}
	}
	if res.AverageImprovement(core.KindRandom) <= 0 {
		t.Error("average improvement over random not positive")
	}
}

func TestRunTable2ShapeAndDerived(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Regress = fastRegress()
	cfg.Temp = fastTemp()
	cfg.Orbit = fastOrbit()
	res := RunTable2(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MSE[core.KindCircular] >= row.MSE[core.KindRandom] {
			t.Errorf("%s: circular MSE not below random", row.Dataset)
		}
	}
	if red := res.AverageReduction(core.KindRandom); red <= 0 || red > 1 {
		t.Errorf("reduction vs random = %v out of (0,1]", red)
	}
	norm := res.Normalized(core.KindRandom)
	for _, row := range norm {
		if math.Abs(row.MSE[core.KindRandom]-1) > 1e-12 {
			t.Errorf("%s: normalized random MSE %v != 1", row.Dataset, row.MSE[core.KindRandom])
		}
	}
}

func TestRunFigure3Profiles(t *testing.T) {
	cfg := DefaultFigure3Config()
	cfg.D = 4096
	res := RunFigure3(cfg)
	if len(res.Matrices) != 3 {
		t.Fatalf("matrices = %d", len(res.Matrices))
	}
	randM := res.Matrices[core.KindRandom]
	lvlM := res.Matrices[core.KindLevel]
	circM := res.Matrices[core.KindCircular]
	m := cfg.M
	// Random: off-diagonal ≈ 0.5.
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && math.Abs(randM[i][j]-0.5) > 0.05 {
				t.Errorf("random sim[%d][%d] = %v", i, j, randM[i][j])
			}
		}
	}
	// Level: first row decreasing.
	for j := 1; j < m; j++ {
		if lvlM[0][j] > lvlM[0][j-1]+0.03 {
			t.Errorf("level first row not decreasing at %d", j)
		}
	}
	// Circular: wrap symmetry sim(0,1) ≈ sim(0,m−1).
	if math.Abs(circM[0][1]-circM[0][m-1]) > 0.05 {
		t.Errorf("circular wrap asymmetry: %v vs %v", circM[0][1], circM[0][m-1])
	}
}

func TestRunMarkovSweep(t *testing.T) {
	pts, err := RunMarkovSweep(10000, []float64{0.05, 0.1, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MarkovFlips > p.AnalyticFlips {
			t.Errorf("Δ=%v: markov %v above analytic %v", p.Delta, p.MarkovFlips, p.AnalyticFlips)
		}
		if p.MarkovFlips < p.Delta*10000 {
			t.Errorf("Δ=%v: flips %v below minimum", p.Delta, p.MarkovFlips)
		}
	}
	if _, err := RunMarkovSweep(10000, []float64{0.7}); err == nil {
		t.Error("invalid delta accepted")
	}
}

func TestRunFigure6ProfileShapes(t *testing.T) {
	cfg := DefaultFigure6Config()
	cfg.D = 4096
	profiles := RunFigure6(cfg)
	if len(profiles) != 3 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for _, p := range profiles {
		if p.Similarity[0] != 1 {
			t.Errorf("r=%v: self similarity %v != 1", p.R, p.Similarity[0])
		}
	}
	// r=0: antipode ≈ 0.5; wrap neighbor clearly similar.
	p0 := profiles[0]
	if math.Abs(p0.Similarity[cfg.M/2]-0.5) > 0.05 {
		t.Errorf("r=0 antipodal similarity %v", p0.Similarity[cfg.M/2])
	}
	if p0.Similarity[cfg.M-1] < 0.7 {
		t.Errorf("r=0 wrap neighbor similarity %v too low", p0.Similarity[cfg.M-1])
	}
	// r=1: all non-self ≈ 0.5.
	p1 := profiles[len(profiles)-1]
	for j := 1; j < cfg.M; j++ {
		if math.Abs(p1.Similarity[j]-0.5) > 0.06 {
			t.Errorf("r=1 similarity[%d] = %v not ≈ 0.5", j, p1.Similarity[j])
		}
	}
}

func TestRunFigure7NormalizedToRandom(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Regress = fastRegress()
	cfg.Temp = fastTemp()
	cfg.Orbit = fastOrbit()
	rows := RunFigure7(cfg)
	for _, row := range rows {
		if math.Abs(row.MSE[core.KindRandom]-1) > 1e-12 {
			t.Errorf("%s: random not normalized to 1", row.Dataset)
		}
		if row.MSE[core.KindCircular] >= 1 {
			t.Errorf("%s: circular normalized MSE %v not below 1", row.Dataset, row.MSE[core.KindCircular])
		}
	}
}

func TestRunFigure8SeriesShape(t *testing.T) {
	cfg := DefaultFigure8Config()
	cfg.Classify = fastClassify()
	cfg.Regress = fastRegress()
	cfg.Gesture = fastGesture("")
	cfg.Temp = fastTemp()
	cfg.Orbit = fastOrbit()
	cfg.RGrid = []float64{0, 0.1, 1}
	series := RunFigure8(cfg)
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Error) != 3 || len(s.R) != 3 {
			t.Fatalf("%s: wrong grid length", s.Dataset)
		}
		// r=0 (plain circular) must beat the random reference on every
		// dataset — that is Tables 1 and 2 restated.
		if s.Error[0] >= 1 {
			t.Errorf("%s: normalized error at r=0 is %v, want < 1", s.Dataset, s.Error[0])
		}
		// r=1 approaches the random reference: allow generous noise band.
		if s.Error[2] < 0.5 || s.Error[2] > 2 {
			t.Errorf("%s: normalized error at r=1 is %v, want ≈ 1", s.Dataset, s.Error[2])
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var b strings.Builder

	t1 := &Table1Result{CircularR: 0.1, Rows: []Table1Row{{
		Task: "X", Accuracy: map[core.Kind]float64{
			core.KindRandom: 0.7, core.KindLevel: 0.7, core.KindCircular: 0.8},
	}}}
	RenderTable1(&b, t1)
	if !strings.Contains(b.String(), "Table 1") || !strings.Contains(b.String(), "80.0%") {
		t.Errorf("Table1 render missing content:\n%s", b.String())
	}

	b.Reset()
	t2 := &Table2Result{CircularR: 0.01, Rows: []Table2Row{{
		Dataset: "Y", MSE: map[core.Kind]float64{
			core.KindRandom: 10, core.KindLevel: 5, core.KindCircular: 2},
	}}}
	RenderTable2(&b, t2)
	if !strings.Contains(b.String(), "Table 2") {
		t.Error("Table2 render missing header")
	}

	b.Reset()
	RenderHeatmap(&b, "test", [][]float64{{1, 0.5}, {0.5, 1}})
	if !strings.Contains(b.String(), "@") {
		t.Error("heatmap missing saturated glyph")
	}

	b.Reset()
	RenderFigure6(&b, []Figure6Profile{{R: 0, Similarity: []float64{1, 0.8}}})
	if !strings.Contains(b.String(), "r=0") {
		t.Error("Figure6 render missing series")
	}

	b.Reset()
	RenderFigure7(&b, t2.Normalized(core.KindRandom))
	if !strings.Contains(b.String(), "1.000") {
		t.Error("Figure7 render missing normalized reference")
	}

	b.Reset()
	RenderFigure8(&b, []Figure8Series{{Dataset: "Z", R: []float64{0, 1}, Error: []float64{0.5, 1}}})
	if !strings.Contains(b.String(), "Z") {
		t.Error("Figure8 render missing series")
	}
	RenderFigure8(&b, nil) // must not panic on empty input

	b.Reset()
	pts, err := RunMarkovSweep(1000, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	RenderMarkovSweep(&b, 1000, pts)
	if !strings.Contains(b.String(), "0.100") {
		t.Error("markov render missing delta")
	}

	b.Reset()
	f3 := &Figure3Result{M: 2, D: 64, Matrices: map[core.Kind][][]float64{
		core.KindRandom: {{1, 0.5}, {0.5, 1}},
	}}
	RenderFigure3(&b, f3)
	if !strings.Contains(b.String(), "random") {
		t.Error("Figure3 render missing family name")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	n := 137
	seen := make([]int32, n)
	parallelFor(n, func(i int) { seen[i]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	parallelFor(0, func(int) { t.Fatal("called for n=0") })
	// Single-element path.
	hit := false
	parallelFor(1, func(i int) { hit = true })
	if !hit {
		t.Error("n=1 not executed")
	}
}

func TestHashStableAndDistinct(t *testing.T) {
	if hash("a") != hash("a") {
		t.Error("hash not deterministic")
	}
	if hash("a") == hash("b") {
		t.Error("hash collision on trivial inputs")
	}
}

func TestIsRegression(t *testing.T) {
	if !isRegression("Beijing") || !isRegression("Mars Express") {
		t.Error("regression datasets misclassified")
	}
	if isRegression("Knot Tying") {
		t.Error("classification dataset misclassified")
	}
}
