package hdcirc

// The repository's benchmark harness. One benchmark per table and figure of
// the paper regenerates a reduced-size version of that experiment and
// reports its headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints both the runtime cost and the reproduced result shape. Full-size
// numbers (d = 10000, full series) are produced by cmd/hdcrepro; the
// internal/experiments tests pin them exactly.

import (
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/experiments"
	"hdcirc/internal/markov"
	"hdcirc/internal/rng"
)

const benchDim = 10000

// ---------------------------------------------------------------------------
// Core operation benchmarks
// ---------------------------------------------------------------------------

// BenchmarkPermuteWords times word-granular rotation. The other core
// kernels (bind, distance, accumulate, threshold, bit rotation) are rows
// of cmd/hdcbench, which CI gates against BENCH_kernels.json.
func BenchmarkPermuteWords(b *testing.B) {
	r := rng.New(6)
	v := bitvec.Random(benchDim-benchDim%64, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.RotateWords(1)
	}
}

// ---------------------------------------------------------------------------
// Basis generation benchmarks (one per family)
// ---------------------------------------------------------------------------

func benchGenerate(b *testing.B, kind core.Kind) {
	r := rng.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Config{Kind: kind, M: 64, D: benchDim}.Build(r)
	}
}

// The level and circular families spend their time in Algorithm 1's level
// construction, which hdcbench's basis_level512 row measures.
func BenchmarkGenerateRandom(b *testing.B)      { benchGenerate(b, core.KindRandom) }
func BenchmarkGenerateLevelLegacy(b *testing.B) { benchGenerate(b, core.KindLevelLegacy) }
func BenchmarkGenerateScatter(b *testing.B)     { benchGenerate(b, core.KindScatter) }

func BenchmarkMarkovSolverThomas(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := markov.ExpectedFlips(benchDim, benchDim/4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovSolverRecurrence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := markov.ExpectedFlipsRecurrence(benchDim, benchDim/4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table and figure benchmarks
// ---------------------------------------------------------------------------

// benchTable1Config is the reduced Table 1 workload used by benchmarks.
func benchTable1Config() experiments.Table1Config {
	cfg := experiments.DefaultTable1Config()
	cfg.Classify.D = 4096
	cfg.Gesture.TrainPerGesture = 12
	cfg.Gesture.TestPerGesture = 8
	return cfg
}

// BenchmarkTable1 regenerates the classification accuracy table and reports
// the mean accuracy per basis family.
func BenchmarkTable1(b *testing.B) {
	cfg := benchTable1Config()
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable1(cfg)
	}
	report := func(kind core.Kind, name string) {
		var sum float64
		for _, row := range res.Rows {
			sum += row.Accuracy[kind]
		}
		b.ReportMetric(100*sum/float64(len(res.Rows)), name)
	}
	report(core.KindRandom, "acc-random-%")
	report(core.KindLevel, "acc-level-%")
	report(core.KindCircular, "acc-circular-%")
}

// benchTable2Config is the reduced Table 2 workload used by benchmarks.
func benchTable2Config() experiments.Table2Config {
	cfg := experiments.DefaultTable2Config()
	cfg.Regress.D = 4096
	cfg.Temp.HourStep = 12
	cfg.Orbit.N = 900
	return cfg
}

// BenchmarkTable2 regenerates the regression MSE table and reports each
// basis family's MSE normalized to the random baseline (averaged across the
// two datasets).
func BenchmarkTable2(b *testing.B) {
	cfg := benchTable2Config()
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunTable2(cfg)
	}
	norm := res.Normalized(core.KindRandom)
	var lvl, circ float64
	for _, row := range norm {
		lvl += row.MSE[core.KindLevel]
		circ += row.MSE[core.KindCircular]
	}
	b.ReportMetric(lvl/float64(len(norm)), "nmse-level")
	b.ReportMetric(circ/float64(len(norm)), "nmse-circular")
}

// BenchmarkFigure3 regenerates the basis similarity heatmaps and reports
// the circular set's wrap-neighbor similarity (the quantity the figure
// exists to show).
func BenchmarkFigure3(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.D = 4096
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure3(cfg)
	}
	circ := res.Matrices[core.KindCircular]
	b.ReportMetric(circ[0][cfg.M-1], "wrap-similarity")
	b.ReportMetric(circ[0][cfg.M/2], "antipode-similarity")
}

// BenchmarkFigure4Markov regenerates the Section 4.2 flip-calibration sweep
// and reports the flips needed for Δ = 0.25 at d = 10000.
func BenchmarkFigure4Markov(b *testing.B) {
	var pts []experiments.MarkovPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.RunMarkovSweep(benchDim, []float64{0.05, 0.1, 0.25, 0.45})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[2].MarkovFlips, "flips-Δ0.25")
}

// BenchmarkFigure6 regenerates the r-profile comparison and reports the
// antipodal similarity at r = 0 and r = 1.
func BenchmarkFigure6(b *testing.B) {
	cfg := experiments.DefaultFigure6Config()
	cfg.D = 4096
	var profiles []experiments.Figure6Profile
	for i := 0; i < b.N; i++ {
		profiles = experiments.RunFigure6(cfg)
	}
	b.ReportMetric(profiles[0].Similarity[1], "r0-neighbor-sim")
	b.ReportMetric(profiles[len(profiles)-1].Similarity[1], "r1-neighbor-sim")
}

// BenchmarkFigure7 regenerates the normalized MSE bars and reports the
// circular bar heights.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchTable2Config()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunFigure7(cfg)
	}
	for _, row := range rows {
		b.ReportMetric(row.MSE[core.KindCircular], "nmse-"+row.Dataset[:4])
	}
}

// BenchmarkFigure8 regenerates a coarse r sweep over all five datasets and
// reports the mean normalized error at r = 0 and r = 1.
func BenchmarkFigure8(b *testing.B) {
	cfg := experiments.DefaultFigure8Config()
	cfg.Classify.D = 4096
	cfg.Regress.D = 4096
	cfg.Gesture.TrainPerGesture = 12
	cfg.Gesture.TestPerGesture = 8
	cfg.Temp.HourStep = 12
	cfg.Orbit.N = 900
	cfg.RGrid = []float64{0, 0.1, 1}
	var series []experiments.Figure8Series
	for i := 0; i < b.N; i++ {
		series = experiments.RunFigure8(cfg)
	}
	var e0, e1 float64
	for _, s := range series {
		e0 += s.Error[0]
		e1 += s.Error[len(s.Error)-1]
	}
	b.ReportMetric(e0/float64(len(series)), "err-r0")
	b.ReportMetric(e1/float64(len(series)), "err-r1")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks
// ---------------------------------------------------------------------------

// BenchmarkAblationLevelGeneration compares the paper's Algorithm-1 level
// construction against the legacy fixed-flip construction on the gesture
// classification task, reporting both accuracies.
func BenchmarkAblationLevelGeneration(b *testing.B) {
	g := dataset.DefaultGestureConfig("Knot Tying")
	g.TrainPerGesture = 12
	g.TestPerGesture = 8
	ds := dataset.GenGestures(g, experiments.DefaultSeed)
	cfg := experiments.DefaultClassifyConfig()
	cfg.D = 4096
	var interp, legacy experiments.ClassificationResult
	for i := 0; i < b.N; i++ {
		interp = experiments.RunGestureClassification(ds, core.KindLevel, cfg)
		legacy = experiments.RunGestureClassification(ds, core.KindLevelLegacy, cfg)
	}
	b.ReportMetric(100*interp.Accuracy, "acc-alg1-%")
	b.ReportMetric(100*legacy.Accuracy, "acc-legacy-%")
}

// BenchmarkAblationScatterVsLevel compares scatter codes against linear
// level sets on the orbital regression task.
func BenchmarkAblationScatterVsLevel(b *testing.B) {
	o := dataset.DefaultOrbitConfig()
	o.N = 900
	orbits := dataset.GenOrbitPower(o, experiments.DefaultSeed)
	cfg := experiments.DefaultRegressConfig()
	cfg.D = 4096
	var lvl, sct experiments.RegressionResult
	for i := 0; i < b.N; i++ {
		lvl = experiments.RunOrbitRegression(orbits, core.KindLevel, cfg)
		sct = experiments.RunOrbitRegression(orbits, core.KindScatter, cfg)
	}
	b.ReportMetric(lvl.MSE, "mse-level")
	b.ReportMetric(sct.MSE, "mse-scatter")
}

// BenchmarkAblationDimension sweeps the hypervector dimension on one
// classification cell, the accuracy/efficiency trade HDC is known for.
func BenchmarkAblationDimension(b *testing.B) {
	g := dataset.DefaultGestureConfig("Knot Tying")
	g.TrainPerGesture = 12
	g.TestPerGesture = 8
	ds := dataset.GenGestures(g, experiments.DefaultSeed)
	for _, d := range []int{1024, 2048, 4096, 8192} {
		b.Run(itoa(d), func(b *testing.B) {
			cfg := experiments.DefaultClassifyConfig()
			cfg.D = d
			cfg.R = 0.1
			var res experiments.ClassificationResult
			for i := 0; i < b.N; i++ {
				res = experiments.RunGestureClassification(ds, core.KindCircular, cfg)
			}
			b.ReportMetric(100*res.Accuracy, "acc-%")
		})
	}
}

// BenchmarkAblationRefinement measures the online-refinement extension
// against the paper's single-pass centroid training.
func BenchmarkAblationRefinement(b *testing.B) {
	g := dataset.DefaultGestureConfig("Suturing")
	g.TrainPerGesture = 12
	g.TestPerGesture = 8
	ds := dataset.GenGestures(g, experiments.DefaultSeed)
	cfg := experiments.DefaultClassifyConfig()
	cfg.D = 4096
	refined := cfg
	refined.RefineEpochs = 5
	var plain, ref experiments.ClassificationResult
	for i := 0; i < b.N; i++ {
		plain = experiments.RunGestureClassification(ds, core.KindCircular, cfg)
		ref = experiments.RunGestureClassification(ds, core.KindCircular, refined)
	}
	b.ReportMetric(100*plain.Accuracy, "acc-centroid-%")
	b.ReportMetric(100*ref.Accuracy, "acc-refined-%")
}

// itoa avoids strconv for this one tiny use.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return "d=" + string(buf[i:])
}
