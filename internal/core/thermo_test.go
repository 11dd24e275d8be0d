package core

import (
	"bytes"
	"math"
	"testing"

	"hdcirc/internal/rng"
)

// The legacy level set is the thermometer code: level l flips the first
// quota·l coordinates of one random permutation relative to L_0. These
// tests pin that structure.

func TestThermometerExactDistances(t *testing.T) {
	r := rng.New(31)
	m, d := 9, 10000
	s := LevelLegacySet(m, d, r)
	if s.Kind() != KindLevelLegacy {
		t.Fatalf("kind = %v", s.Kind())
	}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			got := s.At(i).HammingDistance(s.At(j))
			want := (d/2)*j/(m-1) - (d/2)*i/(m-1)
			if got != want {
				t.Errorf("δ(T%d,T%d) = %d bits, want %d", i, j, got, want)
			}
		}
	}
	if got := s.At(0).HammingDistance(s.At(m - 1)); got != d/2 {
		t.Errorf("endpoints differ in %d bits, want %d", got, d/2)
	}
}

func TestThermometerPrefixStructure(t *testing.T) {
	// Each level's flips must be a superset of the previous level's flips
	// relative to the base: flipped(l) ⊂ flipped(l+1).
	r := rng.New(32)
	m, d := 6, 2048
	s := LevelLegacySet(m, d, r)
	base := s.At(0)
	for l := 1; l < m-1; l++ {
		cur := base.Xor(s.At(l))
		next := base.Xor(s.At(l + 1))
		for i := 0; i < d; i++ {
			if cur.Bit(i) == 1 && next.Bit(i) == 0 {
				t.Fatalf("level %d flip at %d not retained at level %d", l, i, l+1)
			}
		}
	}
}

func TestThermometerSingle(t *testing.T) {
	if s := LevelLegacySet(1, 256, rng.New(33)); s.Len() != 1 {
		t.Error("m=1 thermometer set wrong size")
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"random":       KindRandom,
		"Level":        KindLevel,
		" circular ":   KindCircular,
		"SCATTER":      KindScatter,
		"level-legacy": KindLevelLegacy,
		"legacy":       KindLevelLegacy,
		"thermometer":  KindLevelLegacy,
	}
	for in, want := range cases {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindsRoundTripThroughParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v, %v", k, got, err)
		}
	}
}

func TestSetSerializeRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		s := Config{Kind: k, M: 5, D: 777, R: 0.25}.Build(rng.New(35))
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%v: WriteTo count mismatch", k)
		}
		got, err := ReadSet(&buf)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got.Kind() != s.Kind() || got.Len() != s.Len() || got.Dim() != s.Dim() {
			t.Errorf("%v: metadata mismatch", k)
		}
		if math.Abs(got.R()-s.R()) > 0 {
			t.Errorf("%v: r mismatch %v vs %v", k, got.R(), s.R())
		}
		for i := 0; i < s.Len(); i++ {
			if !got.At(i).Equal(s.At(i)) {
				t.Fatalf("%v: vector %d differs after round trip", k, i)
			}
		}
	}
}

func TestReadSetRejectsGarbage(t *testing.T) {
	if _, err := ReadSet(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadSet(bytes.NewReader([]byte("XXXXYYYYZZZZ00000000111111112222222233333333"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated after header.
	s := Config{Kind: KindLevel, M: 3, D: 128}.Build(rng.New(36))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSet(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Error("truncated stream accepted")
	}
}

// Thermometer codes quantify the information-content argument of Section
// 4.1 at its extreme: the whole set is determined by the base vector and
// one permutation, so pairwise distances never vary across draws.
func TestThermometerZeroDistanceVariance(t *testing.T) {
	r := rng.New(37)
	first := -1
	for draw := 0; draw < 10; draw++ {
		s := LevelLegacySet(5, 1024, r)
		d := s.At(1).HammingDistance(s.At(3))
		if first < 0 {
			first = d
		} else if d != first {
			t.Fatalf("draw %d: distance %d differs from %d", draw, d, first)
		}
	}
}
