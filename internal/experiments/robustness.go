package experiments

import (
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/rng"
)

// The robustness experiment quantifies the holographic-representation claim
// of the paper's introduction: because every bit carries the same amount of
// information, a trained HDC model keeps classifying under random bit
// faults in its stored prototypes, degrading gracefully rather than
// catastrophically.

// RobustnessConfig parameterizes the fault-injection sweep.
type RobustnessConfig struct {
	Classify  ClassifyConfig
	Gesture   dataset.GestureConfig
	FlipGrid  []float64 // fraction of prototype bits flipped
	CircularR float64
}

// DefaultRobustnessConfig sweeps fault rates from 0 to 30%.
func DefaultRobustnessConfig() RobustnessConfig {
	return RobustnessConfig{
		Classify:  DefaultClassifyConfig(),
		Gesture:   dataset.DefaultGestureConfig("Knot Tying"),
		FlipGrid:  []float64{0, 0.01, 0.05, 0.10, 0.20, 0.30},
		CircularR: 0.1,
	}
}

// RobustnessPoint is the accuracy at one fault rate.
type RobustnessPoint struct {
	FlipFraction float64
	Accuracy     float64
}

// RunRobustness fits Table 1's Knot Tying circular cell, then measures its
// test accuracy after flipping increasing fractions of the class
// prototypes' bits, so the 0-fault point is that Table 1 cell. Fault
// injection is deterministic in the seed.
func RunRobustness(cfg RobustnessConfig) []RobustnessPoint {
	cfg.Gesture.Task = "Knot Tying"
	ds := dataset.GenGestures(cfg.Gesture, cfg.Classify.Seed)
	cc := cfg.Classify
	cc.R = cfg.CircularR
	clf, testHVs := fitGesture(ds, core.KindCircular, cc)

	out := make([]RobustnessPoint, len(cfg.FlipGrid))
	for gi, frac := range cfg.FlipGrid {
		faults := rng.Sub(cc.Seed, fmt.Sprintf("robustness/faults/%g", frac))
		n := int(frac * float64(cc.D))
		protos := make([]*bitvec.Vector, ds.Config.NumGestures)
		for c := range protos {
			protos[c] = clf.ClassVector(c).Clone()
			for f := 0; f < n; f++ {
				protos[c].FlipBit(faults.Intn(cc.D))
			}
		}
		correct := 0
		for i, hv := range testHVs {
			if c, _ := bitvec.Nearest(hv, protos); c == ds.Test[i].Label {
				correct++
			}
		}
		out[gi] = RobustnessPoint{FlipFraction: frac, Accuracy: float64(correct) / float64(len(testHVs))}
	}
	return out
}

// RenderRobustness writes the fault-injection sweep.
func RenderRobustness(w io.Writer, pts []RobustnessPoint) {
	fmt.Fprintln(w, "Robustness — gesture accuracy vs prototype bit-fault rate (circular basis)")
	fmt.Fprintf(w, "%12s %10s\n", "flip frac", "accuracy")
	for _, p := range pts {
		fmt.Fprintf(w, "%11.0f%% %9.1f%%\n", 100*p.FlipFraction, 100*p.Accuracy)
	}
}
