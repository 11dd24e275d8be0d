package hdcirc

import (
	"bytes"
	"testing"
)

func TestFacadeThermometerAndParse(t *testing.T) {
	if k, err := ParseKind("thermometer"); err != nil || k != LevelLegacy {
		t.Errorf("ParseKind(thermometer) = %v, %v; want the legacy level set", k, err)
	}
	k, err := ParseKind("circular")
	if err != nil || k != Circular {
		t.Errorf("ParseKind = %v, %v", k, err)
	}
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() = %d families, want 5", len(Kinds()))
	}
}

func TestFacadeBasisSerializationRoundTrip(t *testing.T) {
	s := NewStream(22)
	basis := NewBasis(Circular, 12, 2048, 0.1, s)
	var buf bytes.Buffer
	if _, err := basis.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBasis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < basis.Len(); i++ {
		if !loaded.At(i).Equal(basis.At(i)) {
			t.Fatalf("vector %d differs after round trip", i)
		}
	}
}

func TestFacadeModelSerializationRoundTrip(t *testing.T) {
	d := 1024
	s := NewStream(23)
	clf := NewClassifier(3, d, 24)
	for class := 0; class < 3; class++ {
		clf.Add(class, RandomVector(d, s))
	}
	var buf bytes.Buffer
	if _, err := clf.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadClassifier(&buf, 24)
	if err != nil {
		t.Fatal(err)
	}
	q := RandomVector(d, s)
	p1, _ := clf.Predict(q)
	p2, _ := loaded.Predict(q)
	if p1 != p2 {
		t.Error("classifier predictions diverge after round trip")
	}

	reg := NewRegressor(d, 25)
	reg.Add(RandomVector(d, s), RandomVector(d, s))
	buf.Reset()
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lreg, err := ReadRegressor(&buf, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !lreg.Model().Equal(reg.Model()) {
		t.Error("regressor model diverges after round trip")
	}
}

func TestFacadeWeightedDecode(t *testing.T) {
	s := NewStream(26)
	enc := NewScalarEncoder(NewBasis(Level, 16, 4096, 0, s), 0, 15)
	q := enc.Encode(8)
	if got := enc.DecodeWeighted(q, 3); got < 7 || got > 9 {
		t.Errorf("weighted decode = %v, want near 8", got)
	}
}
