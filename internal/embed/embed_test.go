package embed

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

func levelSet(m, d int, seed uint64) *core.Set {
	return core.LevelSet(m, d, rng.New(seed))
}

func circularSet(m, d int, seed uint64) *core.Set {
	return core.CircularSet(m, d, rng.New(seed))
}

// --- ItemMemory ---

func TestItemMemoryStableAndDistinct(t *testing.T) {
	im := NewItemMemory(2048, 7)
	a1 := im.Get("alpha")
	b := im.Get("beta")
	a2 := im.Get("alpha")
	if a1 != a2 {
		t.Error("repeated Get returned different vector pointer")
	}
	if a1.Equal(b) {
		t.Error("different symbols share a vector")
	}
	if sim := a1.Similarity(b); sim > 0.6 {
		t.Errorf("distinct symbols too similar: %v", sim)
	}
	if im.Len() != 2 {
		t.Errorf("Len = %d, want 2", im.Len())
	}
}

func TestItemMemoryOrderIndependent(t *testing.T) {
	im1 := NewItemMemory(1024, 9)
	im2 := NewItemMemory(1024, 9)
	x1 := im1.Get("x")
	_ = im2.Get("y")
	x2 := im2.Get("x")
	if !x1.Equal(x2) {
		t.Error("symbol vector depends on creation order")
	}
}

func TestItemMemorySeedSensitive(t *testing.T) {
	a := NewItemMemory(1024, 1).Get("x")
	b := NewItemMemory(1024, 2).Get("x")
	if a.Equal(b) {
		t.Error("different seeds produced identical symbol vector")
	}
}

func TestItemMemoryLookup(t *testing.T) {
	im := NewItemMemory(4096, 11)
	for _, s := range []string{"a", "b", "c", "d"} {
		im.Get(s)
	}
	// Noisy query: flip 10% of bits of "c".
	q := im.Get("c").Clone()
	r := rng.New(3)
	for i := 0; i < 400; i++ {
		q.FlipBit(r.Intn(4096))
	}
	sym, sim, ok := im.Lookup(q)
	if !ok || sym != "c" {
		t.Errorf("Lookup = %q (ok=%v), want c", sym, ok)
	}
	if sim < 0.7 {
		t.Errorf("similarity %v suspiciously low", sim)
	}
	empty := NewItemMemory(64, 1)
	if _, _, ok := empty.Lookup(bitvec.New(64)); ok {
		t.Error("empty Lookup returned ok")
	}
}

func TestItemMemoryView(t *testing.T) {
	im := NewItemMemory(256, 5)
	for _, s := range []string{"a", "b", "c"} {
		im.Get(s)
	}
	syms, vecs := im.View()
	if len(syms) != 3 || len(vecs) != 3 {
		t.Fatalf("view lengths %d/%d, want 3/3", len(syms), len(vecs))
	}
	// The view is a stable point in time: later Gets must not disturb it,
	// and the vectors must be the exact stored ones.
	im.Get("d")
	im.Get("e")
	for i, s := range []string{"a", "b", "c"} {
		if syms[i] != s {
			t.Errorf("view symbol %d = %q, want %q", i, syms[i], s)
		}
		if !vecs[i].Equal(im.Get(s)) {
			t.Errorf("view vector for %q diverged from memory", s)
		}
	}
	syms2, _ := im.View()
	if len(syms2) != 5 {
		t.Errorf("second view has %d symbols, want 5", len(syms2))
	}
}

func TestItemMemoryPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad dim did not panic")
		}
	}()
	NewItemMemory(0, 1)
}

// --- ScalarEncoder ---

func TestScalarEncoderIndexing(t *testing.T) {
	e := NewScalarEncoder(levelSet(11, 512, 1), 0, 10)
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {10, 10}, {5, 5}, {4.9, 5}, {5.4, 5},
		{-100, 0}, {100, 10}, {0.49, 0}, {0.51, 1},
	}
	for _, c := range cases {
		if got := e.Index(c.x); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestScalarEncoderClampsHugeAndInfiniteValues(t *testing.T) {
	// Values whose position overflows the int range clamp to the nearer
	// endpoint instead of wrapping through the int conversion.
	e := NewScalarEncoder(levelSet(24, 64, 1), 0, 1)
	cases := []struct {
		x    float64
		want int
	}{
		{1e18, 23}, {math.MaxFloat64, 23}, {math.Inf(1), 23}, {1, 23},
		{-1e18, 0}, {-math.MaxFloat64, 0}, {math.Inf(-1), 0}, {0, 0},
	}
	for _, c := range cases {
		if got := e.Index(c.x); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestScalarEncoderValueRoundTrip(t *testing.T) {
	e := NewScalarEncoder(levelSet(21, 512, 2), -5, 5)
	for i := 0; i < 21; i++ {
		if got := e.Index(e.Value(i)); got != i {
			t.Errorf("round trip index %d → %v → %d", i, e.Value(i), got)
		}
	}
	if e.Value(0) != -5 || e.Value(20) != 5 {
		t.Error("endpoint values wrong")
	}
}

func TestScalarEncoderDecodeCleanVector(t *testing.T) {
	e := NewScalarEncoder(levelSet(16, 10000, 3), 0, 1)
	for i := 0; i < 16; i++ {
		if got := e.DecodeIndex(e.Set().At(i)); got != i {
			t.Errorf("decode of exact level %d gave %d", i, got)
		}
	}
}

func TestScalarEncoderDecodeNoisyVector(t *testing.T) {
	e := NewScalarEncoder(levelSet(8, 10000, 4), 0, 7)
	q := e.Encode(3).Clone()
	r := rng.New(5)
	for i := 0; i < 1500; i++ { // 15% noise
		q.FlipBit(r.Intn(10000))
	}
	if v := e.Decode(q); v != 3 {
		t.Errorf("noisy decode = %v, want 3", v)
	}
}

func TestScalarEncoderSingleLevel(t *testing.T) {
	e := NewScalarEncoder(levelSet(1, 256, 6), 0, 10)
	if e.Index(7) != 0 {
		t.Error("single-level index != 0")
	}
	if e.Value(0) != 5 {
		t.Errorf("single-level value = %v, want midpoint 5", e.Value(0))
	}
}

func TestScalarEncoderPanics(t *testing.T) {
	set := levelSet(4, 64, 7)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inverted interval did not panic")
			}
		}()
		NewScalarEncoder(set, 5, 5)
	}()
	// Degenerate bounds that slip past a plain `hi <= lo` check: NaN
	// compares false with everything, and ±Inf makes Index produce NaN
	// before the int conversion.
	for _, bad := range [][2]float64{
		{math.NaN(), 1},
		{0, math.NaN()},
		{math.NaN(), math.NaN()},
		{math.Inf(-1), math.Inf(1)},
		{0, math.Inf(1)},
		{-math.MaxFloat64, math.MaxFloat64}, // finite bounds, width overflows to +Inf
		{7, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("interval [%v,%v] did not panic", bad[0], bad[1])
				}
			}()
			NewScalarEncoder(set, bad[0], bad[1])
		}()
	}
	e := NewScalarEncoder(set, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NaN encode did not panic")
			}
		}()
		e.Encode(math.NaN())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Value out of range did not panic")
			}
		}()
		e.Value(4)
	}()
}

func TestScalarEncoderNeighborSimilarity(t *testing.T) {
	// Closeness in value → closeness in hyperspace (the defining level-set
	// property surfaced through the encoder API).
	e := NewScalarEncoder(levelSet(32, 10000, 8), 0, 31)
	near := e.Encode(10).Similarity(e.Encode(11))
	far := e.Encode(10).Similarity(e.Encode(30))
	if near <= far {
		t.Errorf("neighbor similarity %v not above far similarity %v", near, far)
	}
}

// --- CircularEncoder ---

func TestCircularEncoderWrapIndex(t *testing.T) {
	e := NewCircularEncoder(circularSet(8, 512, 9), 8)
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7}, {8, 0}, {9, 1}, {-1, 7}, {16, 0}, {7.6, 0},
	}
	for _, c := range cases {
		if got := e.Index(c.x); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCircularEncoderHugeValues(t *testing.T) {
	// With a period below 1, x/period overflows for finite x near
	// MaxFloat64; every such x is a whole multiple of 0.5, so phase 0.
	e := NewCircularEncoder(circularSet(8, 64, 9), 0.5)
	for _, x := range []float64{math.MaxFloat64, -math.MaxFloat64, 1e308} {
		if got := e.Index(x); got != 0 {
			t.Errorf("Index(%v) = %d, want 0", x, got)
		}
	}
}

func TestCircularEncoderPeriodBoundaryEqualsZero(t *testing.T) {
	e := NewCircularEncoder(circularSet(12, 1024, 10), 2*math.Pi)
	if !e.Encode(0).Equal(e.Encode(2 * math.Pi)) {
		t.Error("0 and 2π encode differently")
	}
	if !e.Encode(0.01).Equal(e.Encode(0.01 + 4*math.Pi)) {
		t.Error("wrapping by full periods changes encoding")
	}
}

func TestCircularEncoderWrapNeighborsSimilar(t *testing.T) {
	// The paper's motivating property: values just across the period
	// boundary are similar under circular encoding.
	m, d := 24, 10000
	e := NewCircularEncoder(circularSet(m, d, 11), 24)
	simWrap := e.Encode(23.6).Similarity(e.Encode(0.2))
	simFar := e.Encode(23.6).Similarity(e.Encode(12))
	if simWrap <= simFar+0.2 {
		t.Errorf("wrap similarity %v should far exceed antipodal %v", simWrap, simFar)
	}
	// Contrast with a level encoding of the same interval.
	le := NewScalarEncoder(levelSet(m, d, 12), 0, 24)
	levelWrap := le.Encode(23.6).Similarity(le.Encode(0.2))
	if levelWrap > 0.6 {
		t.Errorf("level encoder should break at the boundary; similarity %v", levelWrap)
	}
}

func TestCircularEncoderPhaseRoundTrip(t *testing.T) {
	e := NewCircularEncoder(circularSet(10, 512, 13), 1.0)
	for i := 0; i < 10; i++ {
		if got := e.Index(e.Phase(i)); got != i {
			t.Errorf("phase round trip %d → %v → %d", i, e.Phase(i), got)
		}
	}
}

func TestCircularEncoderDecode(t *testing.T) {
	e := NewCircularEncoder(circularSet(16, 10000, 14), 2*math.Pi)
	q := e.Encode(math.Pi).Clone()
	r := rng.New(15)
	for i := 0; i < 1000; i++ {
		q.FlipBit(r.Intn(10000))
	}
	got := e.Decode(q)
	if math.Abs(got-math.Pi) > 2*math.Pi/16+1e-9 {
		t.Errorf("noisy circular decode = %v, want ≈ π", got)
	}
}

func TestCircularEncoderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive period did not panic")
			}
		}()
		NewCircularEncoder(circularSet(4, 64, 16), 0)
	}()
	for _, period := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("period %v did not panic", period)
				}
			}()
			NewCircularEncoder(circularSet(4, 64, 16), period)
		}()
	}
	e := NewCircularEncoder(circularSet(4, 64, 17), 4)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "embed: ") {
					t.Errorf("Index(%v) panic = %q, want an embed: panic", x, msg)
				}
			}()
			e.Index(x)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Phase out of range did not panic")
			}
		}()
		e.Phase(-1)
	}()
}

// --- RecordEncoder ---

func TestRecordEncoderSimilarRecordsSimilar(t *testing.T) {
	d := 10000
	re := NewRecordEncoder(d, 6, 21)
	vals := levelSet(16, d, 22)
	enc := NewScalarEncoder(vals, 0, 15)
	encs := make([]FieldEncoder, 6)
	for i := range encs {
		encs[i] = enc
	}
	a := re.EncodeRecord([]float64{1, 2, 3, 4, 5, 6}, encs)
	b := re.EncodeRecord([]float64{1, 2, 3, 4, 5, 7}, encs) // one field nudged
	c := re.EncodeRecord([]float64{15, 14, 13, 12, 11, 10}, encs)
	if simAB, simAC := a.Similarity(b), a.Similarity(c); simAB <= simAC {
		t.Errorf("near record sim %v not above far record sim %v", simAB, simAC)
	}
}

func TestRecordEncoderDeterministic(t *testing.T) {
	d := 1024
	e1 := NewRecordEncoder(d, 3, 5)
	e2 := NewRecordEncoder(d, 3, 5)
	set := levelSet(8, d, 6)
	enc := NewScalarEncoder(set, 0, 7)
	encs := []FieldEncoder{enc, enc, enc}
	a := e1.EncodeRecord([]float64{1, 3, 5}, encs)
	b := e2.EncodeRecord([]float64{1, 3, 5}, encs)
	if !a.Equal(b) {
		t.Error("same-seed record encoders disagree")
	}
}

func TestRecordEncoderKeysDistinct(t *testing.T) {
	re := NewRecordEncoder(4096, 4, 30)
	if re.NumFields() != 4 {
		t.Errorf("NumFields = %d", re.NumFields())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if sim := re.Key(i).Similarity(re.Key(j)); sim > 0.6 {
				t.Errorf("keys %d,%d too similar: %v", i, j, sim)
			}
		}
	}
}

func TestRecordEncoderFieldRecoverable(t *testing.T) {
	// Unbinding a field key from the record should approximately recover
	// that field's value vector (similar above chance).
	d := 10000
	re := NewRecordEncoder(d, 3, 31)
	set := levelSet(4, d, 32)
	enc := NewScalarEncoder(set, 0, 3)
	encs := []FieldEncoder{enc, enc, enc}
	rec := re.EncodeRecord([]float64{0, 1, 2}, encs)
	recovered := rec.Xor(re.Key(1))
	simTrue := recovered.Similarity(enc.Encode(1))
	simWrong := recovered.Similarity(enc.Encode(3))
	if simTrue <= simWrong {
		t.Errorf("field recovery failed: true %v, wrong %v", simTrue, simWrong)
	}
	if simTrue < 0.6 {
		t.Errorf("recovered field similarity %v too low", simTrue)
	}
}

func TestRecordEncoderAllocations(t *testing.T) {
	// An encode allocates only its result: the vector and its words.
	const d = 10000
	re := NewRecordEncoder(d, 18, 9)
	enc := NewCircularEncoder(core.CircularSetR(24, d, 0.1, rng.New(8)), 2*math.Pi)
	vals := make([]*bitvec.Vector, 18)
	xs := make([]float64, 18)
	fields := make([]FieldEncoder, 18)
	for i := range vals {
		xs[i] = float64(i) / 3
		vals[i] = enc.Encode(xs[i])
		fields[i] = enc
	}
	if n := testing.AllocsPerRun(20, func() { re.EncodeVectors(vals) }); n != 2 {
		t.Errorf("EncodeVectors made %v allocations, want 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { re.EncodeRecord(xs, fields) }); n != 2 {
		t.Errorf("EncodeRecord made %v allocations, want 2", n)
	}
}

func TestRecordEncoderPanics(t *testing.T) {
	re := NewRecordEncoder(64, 2, 33)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong value count did not panic")
			}
		}()
		re.EncodeVectors([]*bitvec.Vector{bitvec.New(64)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero fields did not panic")
			}
		}()
		NewRecordEncoder(64, 0, 1)
	}()
}

// --- SequenceEncoder / NGramEncoder ---

func TestSequenceEncoderOrderSensitive(t *testing.T) {
	d := 10000
	im := NewItemMemory(d, 41)
	se := NewSequenceEncoder(d, 42)
	ab := se.Encode([]*bitvec.Vector{im.Get("a"), im.Get("b")})
	ba := se.Encode([]*bitvec.Vector{im.Get("b"), im.Get("a")})
	if sim := ab.Similarity(ba); sim > 0.9 {
		t.Errorf("permuted sequences too similar: %v", sim)
	}
	// Same sequence re-encoded must be identical (deterministic ties).
	se2 := NewSequenceEncoder(d, 42)
	ab2 := se2.Encode([]*bitvec.Vector{im.Get("a"), im.Get("b")})
	if !ab.Equal(ab2) {
		t.Error("same-seed sequence encoders disagree")
	}
}

func TestSequenceEncoderSharedPrefixSimilar(t *testing.T) {
	d := 10000
	im := NewItemMemory(d, 43)
	se := NewSequenceEncoder(d, 44)
	mk := func(ss ...string) *bitvec.Vector {
		items := make([]*bitvec.Vector, len(ss))
		for i, s := range ss {
			items[i] = im.Get(s)
		}
		return se.Encode(items)
	}
	near := mk("a", "b", "c", "d").Similarity(mk("a", "b", "c", "e"))
	far := mk("a", "b", "c", "d").Similarity(mk("w", "x", "y", "z"))
	if near <= far {
		t.Errorf("shared-prefix similarity %v not above disjoint %v", near, far)
	}
}

func TestSequenceEncoderPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty sequence did not panic")
		}
	}()
	NewSequenceEncoder(64, 1).Encode(nil)
}

func TestNGramEncoderBasics(t *testing.T) {
	d := 10000
	im := NewItemMemory(d, 51)
	ng := NewNGramEncoder(d, 3, 52)
	if ng.N() != 3 {
		t.Errorf("N = %d", ng.N())
	}
	mk := func(ss ...string) []*bitvec.Vector {
		items := make([]*bitvec.Vector, len(ss))
		for i, s := range ss {
			items[i] = im.Get(s)
		}
		return items
	}
	overlap := ng.Encode(mk("a", "b", "c", "d")).Similarity(ng.Encode(mk("b", "c", "d", "e")))
	disjoint := ng.Encode(mk("a", "b", "c", "d")).Similarity(ng.Encode(mk("p", "q", "r", "s")))
	if overlap <= disjoint {
		t.Errorf("n-gram overlap similarity %v not above disjoint %v", overlap, disjoint)
	}
}

func TestNGramEncoderShortSequence(t *testing.T) {
	d := 1024
	im := NewItemMemory(d, 53)
	ng := NewNGramEncoder(d, 5, 54)
	// Shorter than n: encodes as a single gram without panicking.
	v := ng.Encode([]*bitvec.Vector{im.Get("a"), im.Get("b")})
	if v.Dim() != d {
		t.Error("short-sequence encoding wrong dimension")
	}
}

func TestNGramEncoderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("n=0 did not panic")
			}
		}()
		NewNGramEncoder(64, 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty encode did not panic")
			}
		}()
		NewNGramEncoder(64, 2, 1).Encode(nil)
	}()
}

// --- property tests ---

func TestQuickScalarIndexMonotone(t *testing.T) {
	e := NewScalarEncoder(levelSet(64, 256, 61), 0, 100)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return e.Index(a) <= e.Index(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCircularIndexPeriodic(t *testing.T) {
	e := NewCircularEncoder(circularSet(32, 256, 62), 10)
	f := func(xRaw int16, periods int8) bool {
		x := float64(xRaw) / 100
		return e.Index(x) == e.Index(x+10*float64(periods))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
