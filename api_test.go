package hdcirc

import (
	"math"
	"testing"
)

// These tests exercise the public facade end to end, doubling as compact
// usage documentation. The heavy lifting is tested in the internal
// packages; here we verify the exported surface wires through correctly.

func TestFacadeVectorOps(t *testing.T) {
	s := NewStream(1)
	a := RandomVector(2048, s)
	b := RandomVector(2048, s)
	if a.Xor(a.Xor(b)).Equal(b) == false {
		t.Error("bind/unbind through facade failed")
	}
	if v := NewVector(64); v.OnesCount() != 0 {
		t.Error("NewVector not zeroed")
	}
	m := Majority([]*Vector{a, b, RandomVector(2048, s)}, nil)
	if sim := m.Similarity(a); sim < 0.6 {
		t.Errorf("bundle similarity %v too low", sim)
	}
	acc := NewAccumulator(2048)
	acc.Add(a)
	if !acc.Threshold(nil).Equal(a) {
		t.Error("accumulator through facade failed")
	}
}

// TestFacadeMajorityNilStream checks that a nil *Stream reaches bitvec as a
// nil Source: two operands can tie, so Majority panics with bitvec's
// message, not with a nil dereference at the first coin.
func TestFacadeMajorityNilStream(t *testing.T) {
	s := NewStream(2)
	a, b := RandomVector(256, s), RandomVector(256, s)
	defer func() {
		const want = "bitvec: an even operand count needs a random source for its ties"
		if got := recover(); got != want {
			t.Errorf("Majority of two vectors with a nil stream panicked with %v, want %q", got, want)
		}
	}()
	Majority([]*Vector{a, b}, nil)
}

func TestFacadeStreams(t *testing.T) {
	if NewStream(5).Uint64() != NewStream(5).Uint64() {
		t.Error("NewStream not deterministic")
	}
	if SubStream(5, "a").Uint64() == SubStream(5, "b").Uint64() {
		t.Error("SubStream ignores label")
	}
}

func TestFacadeBasisFamilies(t *testing.T) {
	s := NewStream(2)
	for _, kind := range []Kind{Random, LevelLegacy, Level, Circular, Scatter} {
		basis := NewBasis(kind, 8, 1024, 0, s)
		if basis.Len() != 8 || basis.Dim() != 1024 || basis.Kind() != kind {
			t.Errorf("%v: wrong basis shape", kind)
		}
	}
	// r wiring: r=1 circular behaves like random.
	c := NewBasis(Circular, 8, 10000, 1, s)
	if d := c.At(0).Distance(c.At(1)); math.Abs(d-0.5) > 0.05 {
		t.Errorf("r=1 neighbor distance %v not ≈ 0.5", d)
	}
}

func TestFacadeExpectedDistances(t *testing.T) {
	if LevelExpectedDistance(11, 0, 10) != 0.5 {
		t.Error("level expected distance wrong")
	}
	if CircularExpectedDistance(10, 0, 5) != 0.5 {
		t.Error("circular expected distance wrong")
	}
	f, err := ExpectedFlips(1000, 1)
	if err != nil || math.Abs(f-1) > 1e-9 {
		t.Errorf("ExpectedFlips = %v, %v", f, err)
	}
	m := SimilarityMatrix(NewBasis(Level, 4, 512, 0, NewStream(3)))
	if len(m) != 4 || m[0][0] != 1 {
		t.Error("similarity matrix wrong")
	}
}

func TestFacadeEncoders(t *testing.T) {
	s := NewStream(4)
	se := NewScalarEncoder(NewBasis(Level, 16, 4096, 0, s), 0, 15)
	if se.Decode(se.Encode(7)) != 7 {
		t.Error("scalar encode/decode round trip failed")
	}
	ce := NewCircularEncoder(NewBasis(Circular, 16, 4096, 0, s), 2*math.Pi)
	if !ce.Encode(0).Equal(ce.Encode(2 * math.Pi)) {
		t.Error("circular encoder does not wrap")
	}
	im := NewItemMemory(4096, 5)
	if !im.Get("x").Equal(im.Get("x")) {
		t.Error("item memory unstable")
	}
	re := NewRecordEncoder(4096, 2, 6)
	rec := re.EncodeRecord([]float64{1, 2}, []FieldEncoder{se, se})
	if rec.Dim() != 4096 {
		t.Error("record encoder wrong dimension")
	}
	seq := NewSequenceEncoder(4096, 7)
	if seq.Encode([]*Vector{im.Get("a"), im.Get("b")}).Dim() != 4096 {
		t.Error("sequence encoder wrong dimension")
	}
	ng := NewNGramEncoder(4096, 2, 8)
	if ng.Encode([]*Vector{im.Get("a"), im.Get("b"), im.Get("c")}).Dim() != 4096 {
		t.Error("ngram encoder wrong dimension")
	}
}

func TestFacadeLearningEndToEnd(t *testing.T) {
	// Angle classification: three von-Mises-like clusters via jittered
	// encodings.
	const d = 8192
	s := NewStream(9)
	enc := NewCircularEncoder(NewBasis(Circular, 32, d, 0, s), 2*math.Pi)
	centers := []float64{0.3, 2.4, 4.5}
	clf := NewClassifier(len(centers), d, 10)
	jitter := NewStream(11)
	for class, c := range centers {
		for i := 0; i < 15; i++ {
			clf.Add(class, enc.Encode(c+(jitter.Float64()-0.5)*0.5))
		}
	}
	correct := 0
	for class, c := range centers {
		for i := 0; i < 10; i++ {
			pred, _ := clf.Predict(enc.Encode(c + (jitter.Float64()-0.5)*0.5))
			if pred == class {
				correct++
			}
		}
	}
	if correct < 28 {
		t.Errorf("classifier got %d/30 on separable clusters", correct)
	}

	// Regression: memorize and recall a single pair exactly.
	labels := NewScalarEncoder(NewBasis(Level, 32, d, 0, s), 0, 31)
	reg := NewRegressor(d, 12)
	reg.Add(enc.Encode(1.0), labels.Encode(20))
	if got := reg.Predict(enc.Encode(1.0), labels); got != 20 {
		t.Errorf("regressor recall = %v, want 20", got)
	}
}

func TestFacadeHashRing(t *testing.T) {
	ring, err := NewHashRing(16, 2048, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Add("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Add("b"); err != nil {
		t.Fatal(err)
	}
	member, ok := ring.Lookup("some-key")
	if !ok || (member != "a" && member != "b") {
		t.Errorf("lookup = %q, %v", member, ok)
	}
}
