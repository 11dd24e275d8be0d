package hdcirc

// Benchmarks for the extension substrates: SDM recall, hardware cost
// evaluation, rotation fast path and weighted decoding, plus the extension
// experiments.

import (
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/experiments"
	"hdcirc/internal/hwcost"
	"hdcirc/internal/rng"
	"hdcirc/internal/sdm"
)

func BenchmarkRotateFastPath(b *testing.B) {
	r := rng.New(30)
	v := bitvec.Random(benchDim-benchDim%64, r) // multiple of 64 → fast path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Rotate(1337)
	}
}

func BenchmarkRotateBitLoop(b *testing.B) {
	r := rng.New(31)
	v := bitvec.Random(benchDim-benchDim%64, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.RotateBits(1337)
	}
}

func BenchmarkSDMWrite(b *testing.B) {
	m := sdm.New(sdm.DefaultConfig(1024))
	r := rng.New(32)
	v := bitvec.Random(1024, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(v, v)
	}
}

func BenchmarkSDMReadIterative(b *testing.B) {
	m := sdm.New(sdm.DefaultConfig(1024))
	r := rng.New(33)
	items := make([]*bitvec.Vector, 8)
	for i := range items {
		items[i] = bitvec.Random(1024, r)
		m.Write(items[i], items[i])
	}
	cue := items[3].Clone()
	for i := 0; i < 100; i++ {
		cue.FlipBit(r.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := m.ReadIterative(cue, 6); !ok {
			b.Fatal("no activations")
		}
	}
}

func BenchmarkDecodeNearest(b *testing.B) {
	s := rng.New(34)
	enc := NewScalarEncoder(core.LevelSet(128, benchDim, s), 0, 127)
	q := enc.Encode(63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Decode(q)
	}
}

func BenchmarkDecodeWeighted(b *testing.B) {
	s := rng.New(35)
	enc := NewScalarEncoder(core.LevelSet(128, benchDim, s), 0, 127)
	q := enc.Encode(63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.DecodeWeighted(q, 5)
	}
}

// BenchmarkAblationDecoder regenerates the decoder ablation and reports the
// weighted decode's relative MSE on both regression datasets.
func BenchmarkAblationDecoder(b *testing.B) {
	cfg := benchTable2Config()
	var rows []experiments.DecoderAblationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RunDecoderAblation(cfg)
	}
	for _, r := range rows {
		b.ReportMetric(r.WeightedMSE/r.NearestMSE, "rel-"+r.Dataset[:4])
	}
}

// BenchmarkExtensionEMG runs the EMG pipeline and reports accuracy.
func BenchmarkExtensionEMG(b *testing.B) {
	cfg := experiments.DefaultEMGExperiment()
	cfg.D = 4096
	cfg.DataConfig.TrainPerGesture = 10
	cfg.DataConfig.TestPerGesture = 8
	var res experiments.ClassificationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunEMG(cfg)
	}
	b.ReportMetric(100*res.Accuracy, "acc-%")
}

// BenchmarkExtensionText runs the language-id pipeline and reports
// accuracy.
func BenchmarkExtensionText(b *testing.B) {
	cfg := experiments.DefaultTextExperiment()
	cfg.D = 4096
	cfg.DataConfig.TrainPerLang = 15
	cfg.DataConfig.TestPerLang = 10
	var res experiments.ClassificationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunText(cfg)
	}
	b.ReportMetric(100*res.Accuracy, "acc-%")
}

// BenchmarkCostModel evaluates the analytic cost model itself (it should be
// effectively free) and reports inference energy for the gesture pipeline.
func BenchmarkCostModel(b *testing.B) {
	w := hwcost.Workload{
		Name: "gesture",
		Pipeline: hwcost.PipelineConfig{
			D: benchDim, Fields: 18, Classes: 15, BasisM: 24,
		},
		Train: 600, Test: 375,
	}
	e := hwcost.Default45nm()
	var rep hwcost.Report
	for i := 0; i < b.N; i++ {
		rep = hwcost.Cost(w, e)
	}
	b.ReportMetric(rep.InferEnergyUJ, "infer-µJ")
}

func BenchmarkHashRingLookup(b *testing.B) {
	ring, err := NewHashRing(64, benchDim, 36)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		if _, err := ring.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ring.Lookup("key-42"); !ok {
			b.Fatal("lookup failed")
		}
	}
}
