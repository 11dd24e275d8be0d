package experiments

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

// GraphHD extension (Nunes et al., DATE 2022 — the paper's reference [31]):
// we classify the three synthetic random-graph families of
// dataset.GenGraphs, which differ only in structure, each graph encoded as
// the bundle of its edges by embed.EncodeGraph.

// GraphHDConfig parameterizes the graph-classification extension.
type GraphHDConfig struct {
	D             int
	Vertices      int // vertices per graph
	TrainPerClass int
	TestPerClass  int
	Seed          uint64
}

// DefaultGraphHDConfig gives three separable-but-not-trivial families.
func DefaultGraphHDConfig() GraphHDConfig {
	return GraphHDConfig{D: 10000, Vertices: 40, TrainPerClass: 30, TestPerClass: 20, Seed: DefaultSeed}
}

// GraphHDResult is the outcome of the graph-classification extension.
type GraphHDResult struct {
	Accuracy float64
	Conf     *stats.Confusion
}

// RunGraphHD trains the centroid classifier on the three graph families
// and returns test accuracy.
func RunGraphHD(cfg GraphHDConfig) GraphHDResult {
	basis := core.RandomSet(cfg.Vertices, cfg.D, rng.Sub(cfg.Seed, "graphhd/basis"))
	tieVec := bitvec.Random(cfg.D, rng.Sub(cfg.Seed, "graphhd/ties"))
	split := func(name string, per int) []dataset.GraphSample {
		return dataset.GenGraphs(cfg.Vertices, per, rng.Sub(cfg.Seed, "graphhd/"+name))
	}

	classes := len(dataset.GraphFamilies)
	clf := model.NewClassifier(classes, cfg.D, cfg.Seed^hash("graphhd/clf"))
	for _, s := range split("train", cfg.TrainPerClass) {
		clf.Add(s.Label, embed.EncodeGraph(s.Graph, basis, tieVec))
	}
	conf := stats.NewConfusion(classes)
	for _, s := range split("test", cfg.TestPerClass) {
		pred, _ := clf.Predict(embed.EncodeGraph(s.Graph, basis, tieVec))
		conf.Observe(s.Label, pred)
	}
	return GraphHDResult{Accuracy: conf.Accuracy(), Conf: conf}
}

// RenderGraphHD writes the graph-classification result with per-family
// recall.
func RenderGraphHD(w io.Writer, res GraphHDResult) {
	fmt.Fprintf(w, "Extension — GraphHD: %d graph families, accuracy %.1f%%\n",
		len(dataset.GraphFamilies), 100*res.Accuracy)
	for i, rec := range res.Conf.PerClassRecall() {
		fmt.Fprintf(w, "  %-16s recall %.1f%%\n", dataset.GraphFamilies[i], 100*rec)
	}
}
