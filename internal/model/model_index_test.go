package model

import (
	"fmt"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// largeKFixture trains one sample per class so every prototype is that
// sample exactly — queries near a prototype have an unambiguous answer.
func largeKFixture(k, d int, cfg index.Config) (*Classifier, []*bitvec.Vector) {
	c := NewClassifier(k, d, 3)
	c.SetIndexConfig(cfg)
	samples := make([]*bitvec.Vector, k)
	for i := range samples {
		samples[i] = bitvec.Random(d, rng.Sub(21, fmt.Sprintf("largek/%d", i)))
		c.Add(i, samples[i])
	}
	return c, samples
}

func TestPredictIndexedExactModeMatchesLinear(t *testing.T) {
	const k, d = 400, 768
	indexed, samples := largeKFixture(k, d, index.Config{MinSize: 100, Candidates: k})
	linear, _ := largeKFixture(k, d, index.Config{Disabled: true})
	if indexed.Prototypes().Indexed() == 0 {
		t.Fatal("index did not engage at k=400 with MinSize=100")
	}
	if linear.Prototypes().Indexed() != 0 {
		t.Fatal("disabled config built an index")
	}
	src := rng.Sub(9, "queries")
	for i := 0; i < 100; i++ {
		var q *bitvec.Vector
		if i%2 == 0 {
			q = bitvec.Random(d, src)
		} else {
			q = samples[i%k].Clone()
			for f := 0; f < d/4; f++ {
				q.FlipBit(int(src.Uint64() % uint64(d)))
			}
		}
		wc, wd := linear.Predict(q)
		gc, gd := indexed.Predict(q)
		if gc != wc || gd != wd {
			t.Fatalf("query %d: indexed (%d,%v), linear (%d,%v)", i, gc, gd, wc, wd)
		}
	}
}

func TestPredictIndexedApproximateRecall(t *testing.T) {
	const k, d = 3000, 2048
	c, samples := largeKFixture(k, d, index.Config{MinSize: 1000})
	src := rng.Sub(13, "noisy")
	hits := 0
	const queries = 200
	for i := 0; i < queries; i++ {
		target := (i * 61) % k
		q := samples[target].Clone()
		for b := 0; b < d; b++ {
			if src.Float64() < 0.3 {
				q.FlipBit(b)
			}
		}
		if got, _ := c.Predict(q); got == target {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.99 {
		t.Fatalf("large-k indexed Predict recall %.4f below 0.99 (%d/%d)", recall, hits, queries)
	}
}

func TestPredictBelowThresholdStaysLinear(t *testing.T) {
	c, _ := largeKFixture(32, 256, index.DefaultConfig())
	if c.Prototypes().Indexed() != 0 {
		t.Fatal("default config indexed a 32-class model")
	}
}

func TestSetIndexConfigInvalidatesFinalization(t *testing.T) {
	c, samples := largeKFixture(200, 256, index.Config{Disabled: true})
	c.Predict(samples[0]) // finalize without index
	c.SetIndexConfig(index.Config{MinSize: 50, Candidates: 200})
	if c.Prototypes().Indexed() == 0 {
		t.Fatal("re-finalization after SetIndexConfig did not build the index")
	}
}
