package model

import (
	"bytes"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

func TestClassifierSerializeRoundTrip(t *testing.T) {
	d := 4096
	r := rng.New(201)
	c := NewClassifier(4, d, 202)
	protos := make([]*bitvec.Vector, 4)
	for class := range protos {
		protos[class] = bitvec.Random(d, r)
		for s := 0; s < 5; s++ {
			c.Add(class, noisy(protos[class], 0.1, r))
		}
	}
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo count mismatch: %d vs %d", n, buf.Len())
	}
	loaded, err := ReadClassifier(&buf, 202)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClasses() != 4 || loaded.Dim() != d {
		t.Fatalf("loaded shape wrong: %d classes, d=%d", loaded.NumClasses(), loaded.Dim())
	}
	// Identical prototypes → identical predictions.
	for i := 0; i < 4; i++ {
		if !loaded.ClassVector(i).Equal(c.ClassVector(i)) {
			t.Fatalf("class vector %d differs after round trip", i)
		}
	}
	for i := 0; i < 20; i++ {
		q := noisy(protos[i%4], 0.2, r)
		p1, _ := c.Predict(q)
		p2, _ := loaded.Predict(q)
		if p1 != p2 {
			t.Fatalf("prediction diverges after round trip")
		}
	}
}

func TestLoadedClassifierCanKeepTraining(t *testing.T) {
	d := 2048
	r := rng.New(203)
	c := NewClassifier(2, d, 204)
	a, b := bitvec.Random(d, r), bitvec.Random(d, r)
	c.Add(0, a)
	c.Add(1, b)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadClassifier(&buf, 204)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Add(0, a) // must not panic; prototypes refresh
	if pred, _ := loaded.Predict(a); pred != 0 {
		t.Error("post-load training broke predictions")
	}
}

func TestRegressorSerializeRoundTrip(t *testing.T) {
	d := 4096
	r := rng.New(205)
	reg := NewRegressor(d, 206)
	for i := 0; i < 7; i++ {
		reg.Add(bitvec.Random(d, r), bitvec.Random(d, r))
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRegressor(&buf, 206)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Model().Equal(reg.Model()) {
		t.Error("model vector differs after round trip")
	}
	q := bitvec.Random(d, r)
	if !loaded.PredictVector(q).Equal(reg.PredictVector(q)) {
		t.Error("prediction vector differs after round trip")
	}
}

func TestModelDeserializeRejectsGarbage(t *testing.T) {
	if _, err := ReadClassifier(bytes.NewReader(nil), 1); err == nil {
		t.Error("empty classifier stream accepted")
	}
	if _, err := ReadRegressor(bytes.NewReader(nil), 1); err == nil {
		t.Error("empty regressor stream accepted")
	}
	if _, err := ReadClassifier(bytes.NewReader([]byte("XXXX\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00")), 1); err == nil {
		t.Error("bad classifier magic accepted")
	}
	if _, err := ReadRegressor(bytes.NewReader([]byte("YYYY\x01\x00\x00\x00")), 1); err == nil {
		t.Error("bad regressor magic accepted")
	}
	// Classifier header claiming classes but no vectors.
	var buf bytes.Buffer
	buf.WriteString("HCLS")
	buf.Write([]byte{1, 0, 0, 0})
	buf.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadClassifier(&buf, 1); err == nil {
		t.Error("truncated classifier accepted")
	}
}

// TestClassifierStateRoundTrip pins the property the durable serving layer
// depends on: a classifier restored from WriteStateTo continues training
// bit-identically to the original — the unit-weight caveat of the HCLS
// prototype format does not apply to the exact-state format.
func TestClassifierStateRoundTrip(t *testing.T) {
	const k, d = 4, 512
	src := rng.New(31)
	a := NewClassifier(k, d, 9)
	tvs := make([]*bitvec.Vector, k)
	for i := range tvs {
		tvs[i] = bitvec.Random(d, src)
	}
	a.SetTieVectors(tvs)
	for i := 0; i < 40; i++ {
		a.Add(i%k, bitvec.Random(d, src))
	}

	var buf bytes.Buffer
	if _, err := a.WriteStateTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewClassifier(k, d, 9)
	b.SetTieVectors(tvs)
	if err := b.RestoreStateFrom(&buf); err != nil {
		t.Fatal(err)
	}

	// Continue training both identically — including Sub, which is where
	// unit-weight restores diverge — and compare every prototype.
	extra := bitvec.Random(d, rng.New(77))
	a.Add(1, extra)
	b.Add(1, extra)
	a.Sub(2, extra)
	b.Sub(2, extra)
	for c := 0; c < k; c++ {
		if !a.ClassVector(c).Equal(b.ClassVector(c)) {
			t.Fatalf("class %d diverged after restored training", c)
		}
	}
}

func TestRestoreStateRejectsShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	a := NewClassifier(3, 256, 1)
	if _, err := a.WriteStateTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := NewClassifier(4, 256, 1).RestoreStateFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("class-count mismatch accepted")
	}
	if err := NewClassifier(3, 128, 1).RestoreStateFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := NewClassifier(3, 256, 1).RestoreStateFrom(bytes.NewReader(buf.Bytes()[:8])); err == nil {
		t.Error("truncated state stream accepted")
	}
}

func TestClassifierCrossStreamRoundTrip(t *testing.T) {
	// Classifier → Regressor reader must fail cleanly, not misparse.
	d := 512
	c := NewClassifier(2, d, 207)
	c.Add(0, bitvec.Random(d, rng.New(208)))
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRegressor(&buf, 1); err == nil {
		t.Error("regressor reader accepted a classifier stream")
	}
}
