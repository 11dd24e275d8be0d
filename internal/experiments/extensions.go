package experiments

// Extension experiments beyond the paper's evaluation: the EMG and text
// workloads from the lineage the paper cites, and ablations of the
// library's design choices (Algorithm-1 vs legacy level generation,
// weighted vs nearest decoding, dimension sweep). All follow the same
// deterministic-config pattern as the table/figure runners.

import (
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/embed"
	"hdcirc/internal/model"
	"hdcirc/internal/rng"
	"hdcirc/internal/stats"
)

// ---------------------------------------------------------------------------
// EMG gesture recognition (Rahimi et al. 2016 lineage)
// ---------------------------------------------------------------------------

// EMGConfig parameterizes the EMG extension experiment.
type EMGConfig struct {
	D          int
	AmpLevels  int // quantization of the rectified amplitude
	LevelKind  core.Kind
	Seed       uint64
	DataConfig dataset.EMGConfig
}

// DefaultEMGExperiment mirrors the classic biosignal pipeline at d = 10000.
func DefaultEMGExperiment() EMGConfig {
	return EMGConfig{
		D: 10000, AmpLevels: 16, LevelKind: core.KindLevel,
		Seed: DefaultSeed, DataConfig: dataset.DefaultEMGConfig(),
	}
}

// RunEMG trains the temporal-record pipeline on synthetic EMG windows:
// each time step bundles channel-keyed amplitude levels, the window is a
// permuted sequence bundle of its steps, and the centroid classifier
// separates gestures. Returns test accuracy.
func RunEMG(cfg EMGConfig) ClassificationResult {
	ds := dataset.GenEMG(cfg.DataConfig, cfg.Seed)
	basis := core.Config{Kind: cfg.LevelKind, M: cfg.AmpLevels, D: cfg.D}.
		Build(rng.Sub(cfg.Seed, "emg/basis/"+cfg.LevelKind.String()))
	amp := embed.NewScalarEncoder(basis, 0, 1)
	record := embed.NewRecordEncoder(cfg.D, cfg.DataConfig.Channels, cfg.Seed^hash("emg/keys"))
	seq := embed.NewSequenceEncoder(cfg.D, cfg.Seed^hash("emg/seq"))

	encs := make([]embed.FieldEncoder, cfg.DataConfig.Channels)
	for i := range encs {
		encs[i] = amp
	}
	encode := func(s dataset.EMGSample) *bitvec.Vector {
		steps := make([]*bitvec.Vector, len(s.Window))
		for t, step := range s.Window {
			steps[t] = record.EncodeRecord(step, encs)
		}
		return seq.Encode(steps)
	}

	clf := model.NewClassifier(cfg.DataConfig.NumGestures, cfg.D, cfg.Seed^hash("emg/clf"))
	for _, s := range ds.Train {
		clf.Add(s.Label, encode(s))
	}
	conf := stats.NewConfusion(cfg.DataConfig.NumGestures)
	for _, s := range ds.Test {
		pred, _ := clf.Predict(encode(s))
		conf.Observe(s.Label, pred)
	}
	return ClassificationResult{
		Task: "EMG", Kind: cfg.LevelKind, Accuracy: conf.Accuracy(), Conf: conf,
	}
}

// ---------------------------------------------------------------------------
// Language identification (Section 3.1 symbol encoding)
// ---------------------------------------------------------------------------

// TextConfig parameterizes the language-identification extension.
type TextConfig struct {
	D          int
	NGram      int
	Seed       uint64
	DataConfig dataset.TextConfig
}

// DefaultTextExperiment mirrors the classic trigram language-id pipeline.
func DefaultTextExperiment() TextConfig {
	return TextConfig{D: 10000, NGram: 3, Seed: DefaultSeed, DataConfig: dataset.DefaultTextConfig()}
}

// RunText trains the n-gram pipeline on synthetic languages: letters map
// through an item memory, sentences become bundles of bound n-grams, and
// the centroid classifier identifies the language. Returns test accuracy.
func RunText(cfg TextConfig) ClassificationResult {
	ds := dataset.GenText(cfg.DataConfig, cfg.Seed)
	items := embed.NewItemMemory(cfg.D, cfg.Seed^hash("text/items"))
	ngram := embed.NewNGramEncoder(cfg.D, cfg.NGram, cfg.Seed^hash("text/ngram"))

	encode := func(s dataset.TextSample) *bitvec.Vector {
		letters := make([]*bitvec.Vector, len(s.Text))
		for i := 0; i < len(s.Text); i++ {
			letters[i] = items.Get(s.Text[i : i+1])
		}
		return ngram.Encode(letters)
	}
	clf := model.NewClassifier(cfg.DataConfig.NumLanguages, cfg.D, cfg.Seed^hash("text/clf"))
	for _, s := range ds.Train {
		clf.Add(s.Label, encode(s))
	}
	conf := stats.NewConfusion(cfg.DataConfig.NumLanguages)
	for _, s := range ds.Test {
		pred, _ := clf.Predict(encode(s))
		conf.Observe(s.Label, pred)
	}
	return ClassificationResult{
		Task: "LanguageID", Kind: core.KindRandom, Accuracy: conf.Accuracy(), Conf: conf,
	}
}

// ---------------------------------------------------------------------------
// Ablation: Algorithm-1 vs legacy level generation (contribution 1 isolated)
// ---------------------------------------------------------------------------

// LevelAblationRow compares the two level constructions on one task.
type LevelAblationRow struct {
	Task          string
	LegacyMetric  float64 // accuracy (classification) or MSE (regression)
	Interp1Metric float64
	Regression    bool
}

// RunLevelAblation evaluates legacy vs Algorithm-1 level sets on all five
// paper workloads (levels substituted for the basis under test everywhere).
func RunLevelAblation(t1 Table1Config, t2 Table2Config) []LevelAblationRow {
	var rows []LevelAblationRow
	for _, task := range Tasks {
		g := t1.Gesture
		g.Task = task
		ds := dataset.GenGestures(g, t1.Classify.Seed)
		legacy := RunGestureClassification(ds, core.KindLevelLegacy, t1.Classify)
		interp := RunGestureClassification(ds, core.KindLevel, t1.Classify)
		rows = append(rows, LevelAblationRow{
			Task: task, LegacyMetric: legacy.Accuracy, Interp1Metric: interp.Accuracy,
		})
	}
	temps := dataset.GenTemperature(t2.Temp, t2.Regress.Seed)
	orbits := dataset.GenOrbitPower(t2.Orbit, t2.Regress.Seed)
	rows = append(rows, LevelAblationRow{
		Task:          "Beijing",
		LegacyMetric:  RunTemperatureRegression(temps, core.KindLevelLegacy, t2.Regress).MSE,
		Interp1Metric: RunTemperatureRegression(temps, core.KindLevel, t2.Regress).MSE,
		Regression:    true,
	})
	rows = append(rows, LevelAblationRow{
		Task:          "Mars Express",
		LegacyMetric:  RunOrbitRegression(orbits, core.KindLevelLegacy, t2.Regress).MSE,
		Interp1Metric: RunOrbitRegression(orbits, core.KindLevel, t2.Regress).MSE,
		Regression:    true,
	})
	return rows
}

// RenderLevelAblation writes the level-generation ablation table.
func RenderLevelAblation(w io.Writer, rows []LevelAblationRow) {
	fmt.Fprintln(w, "Ablation — legacy fixed-flip levels vs Algorithm 1 interpolation levels")
	fmt.Fprintf(w, "%-16s %12s %12s %8s\n", "Dataset", "Legacy", "Algorithm 1", "Metric")
	for _, r := range rows {
		metric := "acc"
		a, b := 100*r.LegacyMetric, 100*r.Interp1Metric
		if r.Regression {
			metric = "MSE"
			a, b = r.LegacyMetric, r.Interp1Metric
		}
		fmt.Fprintf(w, "%-16s %12.1f %12.1f %8s\n", r.Task, a, b, metric)
	}
}

// ---------------------------------------------------------------------------
// Ablation: nearest vs weighted label decoding
// ---------------------------------------------------------------------------

// DecoderAblationRow compares decode rules on one regression dataset.
type DecoderAblationRow struct {
	Dataset     string
	NearestMSE  float64
	WeightedMSE float64 // top-k similarity-weighted decode (k = 5)
}

// RunDecoderAblation decodes Table 2's circular-basis cells with the
// nearest-label decode of Section 2.3, which gives the Table 2 cell, and
// with the top-k weighted decode extension (embed.DecodeWeighted).
func RunDecoderAblation(cfg Table2Config) []DecoderAblationRow {
	const topK = 5
	rc := cfg.Regress
	rc.R = cfg.CircularR
	cells := []*regressionCell{ // in Table2Datasets order
		fitTemperature(dataset.GenTemperature(cfg.Temp, rc.Seed), core.KindCircular, rc),
		fitOrbit(dataset.GenOrbitPower(cfg.Orbit, rc.Seed), core.KindCircular, rc),
	}
	rows := make([]DecoderAblationRow, len(cells))
	for i, c := range cells {
		nearest, _ := c.score(c.nearest)
		weighted, _ := c.score(func(hv *bitvec.Vector) float64 {
			return c.labels.DecodeWeighted(c.reg.PredictVector(hv), topK)
		})
		rows[i] = DecoderAblationRow{Dataset: Table2Datasets[i], NearestMSE: nearest, WeightedMSE: weighted}
	}
	return rows
}

// RenderDecoderAblation writes the decoder ablation table.
func RenderDecoderAblation(w io.Writer, rows []DecoderAblationRow) {
	fmt.Fprintln(w, "Ablation — nearest-label decode (paper) vs top-5 weighted decode (extension)")
	fmt.Fprintf(w, "%-16s %12s %12s %9s\n", "Dataset", "Nearest", "Weighted", "Δ%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.1f %12.1f %8.1f%%\n",
			r.Dataset, r.NearestMSE, r.WeightedMSE, 100*(r.WeightedMSE/r.NearestMSE-1))
	}
}

// ---------------------------------------------------------------------------
// Ablation: dimension sweep
// ---------------------------------------------------------------------------

// DimensionPoint is the accuracy of one classification cell at one d.
type DimensionPoint struct {
	D        int
	Accuracy float64
}

// RunDimensionSweep evaluates the circular-basis gesture classifier across
// hypervector dimensions (the robustness/efficiency trade of HDC).
func RunDimensionSweep(base ClassifyConfig, gesture dataset.GestureConfig, dims []int) []DimensionPoint {
	gesture.Task = "Knot Tying"
	ds := dataset.GenGestures(gesture, base.Seed)
	out := make([]DimensionPoint, len(dims))
	parallelFor(len(dims), func(i int) {
		cfg := base
		cfg.D = dims[i]
		cfg.R = 0.1
		out[i] = DimensionPoint{D: dims[i], Accuracy: RunGestureClassification(ds, core.KindCircular, cfg).Accuracy}
	})
	return out
}

// RenderDimensionSweep writes the dimension sweep table.
func RenderDimensionSweep(w io.Writer, pts []DimensionPoint) {
	fmt.Fprintln(w, "Ablation — circular-basis accuracy vs hypervector dimension (Knot Tying)")
	fmt.Fprintf(w, "%8s %10s\n", "d", "accuracy")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %9.1f%%\n", p.D, 100*p.Accuracy)
	}
}

// RenderExtension writes an extension classification result.
func RenderExtension(w io.Writer, res ClassificationResult) {
	fmt.Fprintf(w, "Extension — %s pipeline: accuracy %.1f%% over %d test samples\n",
		res.Task, 100*res.Accuracy, res.Conf.Total())
}
