package dataset

// Extension workloads beyond the paper's three evaluation datasets, from
// the lineage the paper builds on: EMG biosignal gesture recognition
// (Rahimi et al. 2016 — where level-hypervectors were introduced), text
// language identification (Section 3.1's symbol encoding) and GraphHD's
// graph classification (Nunes et al., DATE 2022). All are synthetic for
// the same licensing reasons as the main workloads.

import (
	"fmt"
	"math"
	"strings"

	"hdcirc/internal/dist"
	"hdcirc/internal/graph"
	"hdcirc/internal/rng"
)

// ---------------------------------------------------------------------------
// EMG hand-gesture windows
// ---------------------------------------------------------------------------

// EMGSample is one analysis window of multi-channel EMG amplitudes.
type EMGSample struct {
	Window [][]float64 // [time][channel] rectified amplitudes in [0, 1]
	Label  int         // gesture id
}

// EMGConfig parameterizes the synthetic EMG generator.
type EMGConfig struct {
	NumGestures     int // hand gestures (Rahimi et al. use 5)
	Channels        int // electrodes (4 in the original setup)
	WindowLen       int // samples per analysis window
	TrainPerGesture int
	TestPerGesture  int
	NoiseSD         float64 // multiplicative envelope noise
}

// DefaultEMGConfig mirrors the classic 4-channel, 5-gesture EMG setup.
func DefaultEMGConfig() EMGConfig {
	return EMGConfig{
		NumGestures:     5,
		Channels:        4,
		WindowLen:       32,
		TrainPerGesture: 30,
		TestPerGesture:  20,
		NoiseSD:         0.5,
	}
}

// EMGDataset holds train/test splits of synthetic EMG windows.
type EMGDataset struct {
	Config EMGConfig
	Train  []EMGSample
	Test   []EMGSample
}

// GenEMG synthesizes gesture windows: every gesture has a characteristic
// per-channel activation envelope (a base level plus a within-window
// modulation); observed amplitudes are the envelope under multiplicative
// noise, clamped to [0, 1]. Gestures differ in which channels co-activate —
// the muscle-synergy structure EMG classifiers exploit.
func GenEMG(cfg EMGConfig, seed uint64) *EMGDataset {
	if cfg.NumGestures <= 1 || cfg.Channels <= 0 || cfg.WindowLen <= 0 {
		panic(fmt.Sprintf("dataset: bad EMG config %+v", cfg))
	}
	layout := rng.Sub(seed, "emg/layout")
	type envelope struct{ base, amp, phase float64 }
	envs := make([][]envelope, cfg.NumGestures)
	for g := range envs {
		envs[g] = make([]envelope, cfg.Channels)
		for ch := range envs[g] {
			envs[g][ch] = envelope{
				base:  dist.Uniform(layout, 0.1, 0.8),
				amp:   dist.Uniform(layout, 0.05, 0.25),
				phase: dist.Uniform(layout, 0, 2*math.Pi),
			}
		}
	}
	gen := func(stream *rng.Stream, per int) []EMGSample {
		out := make([]EMGSample, 0, per*cfg.NumGestures)
		for g := 0; g < cfg.NumGestures; g++ {
			for s := 0; s < per; s++ {
				w := make([][]float64, cfg.WindowLen)
				for t := range w {
					w[t] = make([]float64, cfg.Channels)
					for ch := range w[t] {
						e := envs[g][ch]
						v := e.base + e.amp*math.Sin(2*math.Pi*float64(t)/float64(cfg.WindowLen)+e.phase)
						v *= 1 + cfg.NoiseSD*stream.NormFloat64()
						if v < 0 {
							v = 0
						}
						if v > 1 {
							v = 1
						}
						w[t][ch] = v
					}
				}
				out = append(out, EMGSample{Window: w, Label: g})
			}
		}
		stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &EMGDataset{
		Config: cfg,
		Train:  gen(rng.Sub(seed, "emg/train"), cfg.TrainPerGesture),
		Test:   gen(rng.Sub(seed, "emg/test"), cfg.TestPerGesture),
	}
}

// ---------------------------------------------------------------------------
// Text language identification
// ---------------------------------------------------------------------------

// TextSample is one synthetic sentence with its language label.
type TextSample struct {
	Text  string
	Label int
}

// TextConfig parameterizes the synthetic language generator.
type TextConfig struct {
	NumLanguages int
	Alphabet     int // letters per language, ≤ 26
	SentenceLen  int // characters per sentence
	TrainPerLang int
	TestPerLang  int
	Sharpness    float64 // concentration of the per-language bigram statistics; higher = more distinctive languages
}

// DefaultTextConfig gives five clearly-but-not-trivially separable
// languages.
func DefaultTextConfig() TextConfig {
	return TextConfig{
		NumLanguages: 5,
		Alphabet:     26,
		SentenceLen:  96,
		TrainPerLang: 40,
		TestPerLang:  25,
		Sharpness:    4.5,
	}
}

// TextDataset holds train/test splits of synthetic sentences.
type TextDataset struct {
	Config TextConfig
	Train  []TextSample
	Test   []TextSample
}

// GenText synthesizes sentences from per-language first-order Markov chains
// over the alphabet: each language has its own letter-transition weights
// (softmax of sharpness-scaled uniforms), so languages differ in bigram
// statistics exactly the way the n-gram encoding of Section 3.1 detects.
func GenText(cfg TextConfig, seed uint64) *TextDataset {
	if cfg.NumLanguages <= 1 || cfg.Alphabet < 2 || cfg.Alphabet > 26 || cfg.SentenceLen <= 1 {
		panic(fmt.Sprintf("dataset: bad text config %+v", cfg))
	}
	layout := rng.Sub(seed, "text/layout")
	// trans[g][prev][next] cumulative distribution per language.
	trans := make([][][]float64, cfg.NumLanguages)
	for g := range trans {
		trans[g] = make([][]float64, cfg.Alphabet)
		for prev := range trans[g] {
			weights := make([]float64, cfg.Alphabet)
			var sum float64
			for next := range weights {
				weights[next] = math.Exp(cfg.Sharpness * layout.Float64())
				sum += weights[next]
			}
			cdf := make([]float64, cfg.Alphabet)
			acc := 0.0
			for next := range weights {
				acc += weights[next] / sum
				cdf[next] = acc
			}
			cdf[cfg.Alphabet-1] = 1
			trans[g][prev] = cdf
		}
	}
	sample := func(cdf []float64, u float64) int {
		for i, c := range cdf {
			if u < c {
				return i
			}
		}
		return len(cdf) - 1
	}
	gen := func(stream *rng.Stream, per int) []TextSample {
		out := make([]TextSample, 0, per*cfg.NumLanguages)
		for g := 0; g < cfg.NumLanguages; g++ {
			for s := 0; s < per; s++ {
				var b strings.Builder
				cur := stream.Intn(cfg.Alphabet)
				b.WriteByte(byte('a' + cur))
				for i := 1; i < cfg.SentenceLen; i++ {
					cur = sample(trans[g][cur], stream.Float64())
					b.WriteByte(byte('a' + cur))
				}
				out = append(out, TextSample{Text: b.String(), Label: g})
			}
		}
		stream.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	return &TextDataset{
		Config: cfg,
		Train:  gen(rng.Sub(seed, "text/train"), cfg.TrainPerLang),
		Test:   gen(rng.Sub(seed, "text/test"), cfg.TestPerLang),
	}
}

// ---------------------------------------------------------------------------
// Random-graph families (GraphHD)
// ---------------------------------------------------------------------------

// GraphFamilies names the synthetic graph families in label order.
var GraphFamilies = []string{"erdos-renyi", "pref-attach", "watts-strogatz"}

// GraphSample is one synthetic graph with its family label.
type GraphSample struct {
	Graph *graph.Graph
	Label int // index into GraphFamilies
}

// GenGraphs draws per graphs of n vertices from each family in label
// order, all from r. The families have matched average degree (~4), so
// density alone cannot separate them; only structure can.
func GenGraphs(n, per int, r *rng.Stream) []GraphSample {
	out := make([]GraphSample, 0, per*len(GraphFamilies))
	for label := range GraphFamilies {
		for i := 0; i < per; i++ {
			var g *graph.Graph
			switch label {
			case 0:
				g = graph.ErdosRenyi(n, 4/float64(n-1), r)
			case 1:
				g = graph.PreferentialAttachment(n, 2, r)
			default:
				g = graph.WattsStrogatz(n, 4, 0.1, r)
			}
			out = append(out, GraphSample{Graph: g, Label: label})
		}
	}
	return out
}
