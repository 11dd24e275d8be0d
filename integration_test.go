package hdcirc

// End-to-end integration tests: golden determinism across the whole stack
// and cross-module pipelines that the unit tests cover only in isolation.

import (
	"bytes"
	"math"
	"testing"

	"hdcirc/internal/core"
	"hdcirc/internal/dataset"
	"hdcirc/internal/experiments"
)

// TestGoldenDeterminism pins the full-stack determinism contract: the
// default seed must reproduce this recorded accuracy on the gesture task,
// run after run, machine after machine. The paper's full-size cells are
// pinned in internal/experiments (TestPaperTablesPinned).
func TestGoldenDeterminism(t *testing.T) {
	cfg := experiments.DefaultClassifyConfig()
	cfg.D = 2048
	g := dataset.DefaultGestureConfig("Knot Tying")
	g.TrainPerGesture = 10
	g.TestPerGesture = 6
	ds := dataset.GenGestures(g, experiments.DefaultSeed)
	const recorded = 0.8333333333333334
	if got := experiments.RunGestureClassification(ds, core.KindCircular, cfg).Accuracy; got != recorded {
		t.Fatalf("accuracy %v, recorded %v", got, recorded)
	}
	// A different seed must change the value: guards against a silently
	// ignored seed.
	cfg.Seed++
	if got := experiments.RunGestureClassification(ds, core.KindCircular, cfg).Accuracy; got == recorded {
		t.Errorf("seed %d reproduces the default seed's accuracy %v", cfg.Seed, got)
	}
}

// TestTrainSerializeDeployPredict is the deployment story end to end:
// train on the host, serialize the model and encoders' basis sets, reload,
// and verify identical predictions.
func TestTrainSerializeDeployPredict(t *testing.T) {
	const d = 4096
	stream := NewStream(77)
	basis := NewBasis(Circular, 24, d, 0.05, stream)
	enc := NewCircularEncoder(basis, 2*math.Pi)

	clf := NewClassifier(3, d, 78)
	jitter := NewStream(79)
	centers := []float64{0.5, 2.5, 4.5}
	for class, c := range centers {
		for i := 0; i < 12; i++ {
			clf.Add(class, enc.Encode(c+(jitter.Float64()-0.5)*0.4))
		}
	}

	// Host → wire → device.
	var basisBuf, modelBuf bytes.Buffer
	if _, err := basis.WriteTo(&basisBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := clf.WriteTo(&modelBuf); err != nil {
		t.Fatal(err)
	}
	deployedBasis, err := ReadBasis(&basisBuf)
	if err != nil {
		t.Fatal(err)
	}
	deployedEnc := NewCircularEncoder(deployedBasis, 2*math.Pi)
	deployedClf, err := ReadClassifier(&modelBuf, 78)
	if err != nil {
		t.Fatal(err)
	}

	for q := 0.0; q < 2*math.Pi; q += 0.37 {
		hostPred, _ := clf.Predict(enc.Encode(q))
		devPred, _ := deployedClf.Predict(deployedEnc.Encode(q))
		if hostPred != devPred {
			t.Fatalf("deployment diverges at %v: host %d vs device %d", q, hostPred, devPred)
		}
	}
}

// TestCircularPipelineBeatsLevelAtTheSeam isolates the paper's core
// mechanism in one compact integration test: a classifier whose classes
// straddle the wrap point.
func TestCircularPipelineBeatsLevelAtTheSeam(t *testing.T) {
	const d = 8192
	run := func(kind Kind) float64 {
		stream := NewStream(88)
		var enc FieldEncoder
		basis := NewBasis(kind, 32, d, 0, stream)
		if kind == Circular {
			enc = NewCircularEncoder(basis, 2*math.Pi)
		} else {
			enc = NewScalarEncoder(basis, 0, 2*math.Pi)
		}
		clf := NewClassifier(2, d, 89)
		jitter := NewStream(90)
		// Class 0 straddles the seam; class 1 sits at π.
		sample := func(center float64) float64 {
			x := center + (jitter.Float64()-0.5)*0.8
			return math.Mod(x+2*math.Pi, 2*math.Pi)
		}
		for i := 0; i < 40; i++ {
			clf.Add(0, enc.Encode(sample(0)))
			clf.Add(1, enc.Encode(sample(math.Pi)))
		}
		correct, total := 0, 0
		for i := 0; i < 60; i++ {
			p0, _ := clf.Predict(enc.Encode(sample(0)))
			p1, _ := clf.Predict(enc.Encode(sample(math.Pi)))
			if p0 == 0 {
				correct++
			}
			if p1 == 1 {
				correct++
			}
			total += 2
		}
		return float64(correct) / float64(total)
	}
	circ := run(Circular)
	lvl := run(Level)
	if circ <= lvl {
		t.Errorf("circular (%v) does not beat level (%v) on a seam-straddling class", circ, lvl)
	}
	if circ < 0.95 {
		t.Errorf("circular accuracy %v unexpectedly low on a separable task", circ)
	}
}

// TestSDMAsCleanupForClassifier couples the SDM substrate with the
// classifier: prototypes stored in SDM are recoverable from noisy reads
// and still classify correctly.
func TestSDMAsCleanupForClassifier(t *testing.T) {
	const d = 1024
	stream := NewStream(91)
	protos := make([]*Vector, 4)
	mem := NewSDM(DefaultSDMConfig(d))
	for i := range protos {
		protos[i] = RandomVector(d, stream)
		mem.Write(protos[i], protos[i])
	}
	noise := NewStream(92)
	for i, p := range protos {
		cue := p.Clone()
		for f := 0; f < d/8; f++ {
			cue.FlipBit(noise.Intn(d))
		}
		recalled, _, ok := mem.ReadIterative(cue, 8)
		if !ok {
			t.Fatalf("prototype %d: no activations", i)
		}
		if dd := recalled.Distance(p); dd > 0.02 {
			t.Errorf("prototype %d: cleanup distance %v", i, dd)
		}
	}
}
