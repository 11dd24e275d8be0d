package scenario

import (
	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/embed"
	"hdcirc/internal/graph"
	"hdcirc/internal/rng"
)

// GraphHD classification (Nunes et al., DATE 2022 lineage): the three
// random-graph families of dataset.GenGraphs, separable only by structure.
// The wire record is the flattened upper triangle of the adjacency matrix
// (one 0/1 float per vertex pair); the server-side encoder rebuilds the
// graph and encodes it with embed.EncodeGraph.

const (
	graphhdDim      = 4096
	graphhdSeed     = 2003
	graphhdVertices = 40
	graphhdTrain    = 30 // per family
	graphhdTest     = 20 // per family
)

// graphEncoder is the serving encoder for the graphhd scenario.
type graphEncoder struct {
	vertices int
	basis    *core.Set
	tieVec   *bitvec.Vector
}

func (e *graphEncoder) Fields() int { return e.vertices * (e.vertices - 1) / 2 }

// Encode rebuilds the graph from its upper-triangle adjacency record
// (values >= 0.5 are edges) and returns the GraphHD edge bundle.
func (e *graphEncoder) Encode(features []float64) *bitvec.Vector {
	g := graph.New(e.vertices)
	i := 0
	for u := 0; u < e.vertices; u++ {
		for v := u + 1; v < e.vertices; v++ {
			if features[i] >= 0.5 {
				g.AddEdge(u, v)
			}
			i++
		}
	}
	return embed.EncodeGraph(g, e.basis, e.tieVec)
}

// graphToRow flattens a graph into its wire record.
func graphToRow(g *graph.Graph, label int) Row {
	n := g.N()
	features := make([]float64, n*(n-1)/2)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				features[i] = 1
			}
			i++
		}
	}
	return Row{Label: label, Features: features}
}

func buildGraphHD() *Scenario {
	sc := &Scenario{
		Name:        "graphhd",
		Description: "GraphHD: three random-graph families, centrality-ranked edge-bundle encoding",
		Dim:         graphhdDim,
		Classes:     len(dataset.GraphFamilies),
		Shards:      2,
		Seed:        graphhdSeed,
		ClassNames:  dataset.GraphFamilies,
		Encoder: &graphEncoder{
			vertices: graphhdVertices,
			basis:    core.RandomSet(graphhdVertices, graphhdDim, rng.Sub(graphhdSeed, "scenario/graphhd/basis")),
			tieVec:   bitvec.Random(graphhdDim, rng.Sub(graphhdSeed, "scenario/graphhd/ties")),
		},
		AccuracyFloor: 0.60,
	}
	gen := func(split string, per int) []Row {
		var rows []Row
		for _, s := range dataset.GenGraphs(graphhdVertices, per, rng.Sub(graphhdSeed, "scenario/graphhd/"+split)) {
			rows = append(rows, graphToRow(s.Graph, s.Label))
		}
		return rows
	}
	sc.Train = gen("train", graphhdTrain)
	sc.Test = gen("test", graphhdTest)
	return sc
}
