package bitvec

import (
	"testing"
	"testing/quick"
)

// checkRotateAllShifts compares Rotate with the per-bit reference rotation
// at every shift in [-d-3, d+3] for each dimension.
func checkRotateAllShifts(t *testing.T, seed int64, dims []int) {
	t.Helper()
	src := newTestSource(seed)
	for _, d := range dims {
		v := Random(d, src)
		for k := -d - 3; k <= d+3; k++ {
			if !v.Rotate(k).Equal(v.referenceRotateBits(((k % d) + d) % d)) {
				t.Fatalf("d=%d k=%d: Rotate diverges from the per-bit reference", d, k)
			}
		}
	}
}

// The d = 4096 and 9984 cases are the language and signals scenarios'
// n-gram and sequence dimension and the largest multiple of 64 below the
// paper's d = 10000.
func TestRotateMatchesRotateBitsAllShifts(t *testing.T) {
	checkRotateAllShifts(t, 71, []int{64, 640, 4096, 9984})
}

// Dimensions that are not a multiple of 64 end in a partial word, whose
// tail bits the rotation must keep zero.
func TestRotateFallbackNonMultiple(t *testing.T) {
	checkRotateAllShifts(t, 72, []int{1, 63, 65, 10000})
}

func TestRotateZeroIsClone(t *testing.T) {
	src := newTestSource(73)
	v := Random(256, src)
	r := v.Rotate(0)
	if !r.Equal(v) {
		t.Fatal("rotate by 0 changed vector")
	}
	r.FlipBit(0)
	if v.Bit(0) == r.Bit(0) {
		t.Fatal("rotate by 0 shares storage")
	}
}

func TestRotateComposition(t *testing.T) {
	src := newTestSource(74)
	v := Random(640, src)
	if !v.Rotate(13).Rotate(29).Equal(v.Rotate(42)) {
		t.Error("rotations do not compose additively")
	}
	if !v.Rotate(640).Equal(v) {
		t.Error("full rotation is not identity")
	}
}

func TestQuickRotateRoundTrip(t *testing.T) {
	f := func(seed uint16, kRaw int16) bool {
		d := 320
		v := Random(d, newTestSource(int64(seed)))
		k := int(kRaw)
		return v.Rotate(k).Rotate(-k).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRotatePreservesPopcount(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		d := 192
		v := Random(d, newTestSource(int64(seed)))
		return v.Rotate(int(kRaw)).OnesCount() == v.OnesCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
