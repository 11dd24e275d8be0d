// Package embed builds the paper's encoding functions φ: it maps atomic
// values (symbols, real numbers, angles) to basis-hypervectors and composes
// them into records, sequences, n-grams and graphs with the HDC operations.
// The scalar and circular encoders are invertible (Section 2.3 needs φℓ⁻¹
// to decode regression labels): decoding finds the most similar basis
// vector and returns the value it quantizes.
package embed

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/graph"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// ---------------------------------------------------------------------------
// Item memory (symbols → random-hypervectors)
// ---------------------------------------------------------------------------

// ItemMemory maps symbolic identifiers to random-hypervectors, creating
// them lazily. Lookups of the same symbol always return the same vector.
// Creation order does not affect other symbols' vectors: each symbol's
// vector comes from a substream derived from the memory's seed and the
// symbol itself.
type ItemMemory struct {
	d    int
	seed uint64
	m    map[string]int // symbol → index into syms/vecs
	syms []string
	vecs []*bitvec.Vector

	ixCfg index.Config              // how Lookup searches; zero value = defaults, auto-enable past MinSize
	setMu sync.Mutex                // serializes refreshes of set (Lookup stays safe with Lookup)
	set   atomic.Pointer[index.Set] // vecs as Lookup last saw them; nil until the first Lookup
}

// NewItemMemory returns an empty item memory over dimension d seeded by
// seed. Associative Lookup is automatically served through a bit-sampling
// sketch index (internal/index) once the memory grows past the default
// index threshold; SetIndexConfig tunes or disables that.
func NewItemMemory(d int, seed uint64) *ItemMemory {
	if d <= 0 {
		panic(fmt.Sprintf("embed: dimension must be positive, got %d", d))
	}
	return &ItemMemory{d: d, seed: seed, m: make(map[string]int)}
}

// SetIndexConfig replaces the memory's sketch-index configuration (see
// index.Config: signature width, candidate count, auto-enable threshold,
// Disabled for exact-only operation) and invalidates any index built so
// far. Call it before concurrent Lookups start.
func (im *ItemMemory) SetIndexConfig(cfg index.Config) {
	im.setMu.Lock()
	im.ixCfg = cfg
	im.set.Store(nil)
	im.setMu.Unlock()
}

// Dim returns the hypervector dimension.
func (im *ItemMemory) Dim() int { return im.d }

// Len returns the number of symbols stored so far.
func (im *ItemMemory) Len() int { return len(im.m) }

// Get returns the hypervector for symbol, creating it deterministically on
// first use.
func (im *ItemMemory) Get(symbol string) *bitvec.Vector {
	if i, ok := im.m[symbol]; ok {
		return im.vecs[i]
	}
	v := bitvec.Random(im.d, rng.Sub(im.seed, "item/"+symbol))
	im.m[symbol] = len(im.syms)
	im.syms = append(im.syms, symbol)
	im.vecs = append(im.vecs, v)
	return v
}

// View returns the memory's symbols and their hypervectors in creation
// order, as capacity-capped slices sharing the memory's storage. The
// returned slices are a stable point-in-time view: later Gets only append
// past their length, never move or mutate the vectors already handed out —
// which is exactly what a snapshot-serving layer needs to publish an
// immutable item-memory generation without copying it. Callers must not
// modify the slices or the vectors.
func (im *ItemMemory) View() (symbols []string, vectors []*bitvec.Vector) {
	return im.syms[:len(im.syms):len(im.syms)], im.vecs[:len(im.vecs):len(im.vecs)]
}

// Lookup returns the stored symbol whose hypervector is most similar to q,
// with its similarity; ok is false when the memory is empty. This is the
// cleanup/associative-recall step of symbolic HDC.
//
// The creation-ordered vectors are searched through an index.Set: an exact
// scan below the configured index threshold (or with indexing disabled),
// the bit-sampling sketch index past it. Exact similarity ties resolve to
// the earliest-created symbol. Gets between Lookups append to the Set's
// exactly scanned tail, and the Set decides when to rebuild its index.
// Lookup is safe for concurrent Lookup callers; it is not safe
// concurrently with Get (which mutates the backing slices).
func (im *ItemMemory) Lookup(q *bitvec.Vector) (symbol string, sim float64, ok bool) {
	n := len(im.vecs)
	if n == 0 {
		return "", -1, false
	}
	idx, hd := im.lookupSet(n).Nearest(q)
	return im.syms[idx], 1 - float64(hd)/float64(im.d), true
}

// lookupSet returns the Set over the first n vectors, refreshing it after
// Gets: the next generation extends the last one, so index.NewSet can keep
// its index. The fast path is a single atomic load; a refresh
// double-checks under the mutex so racing Lookups agree on one Set.
func (im *ItemMemory) lookupSet(n int) *index.Set {
	if s := im.set.Load(); s != nil && s.Len() == n {
		return s
	}
	im.setMu.Lock()
	defer im.setMu.Unlock()
	s := im.set.Load()
	if s == nil || s.Len() != n {
		s = index.NewSet(im.vecs[:n:n], im.ixCfg, s)
		im.set.Store(s)
	}
	return s
}

// ---------------------------------------------------------------------------
// Scalar (level) encoder
// ---------------------------------------------------------------------------

// ScalarEncoder quantizes the real interval [Lo, Hi] onto a basis set of m
// hypervectors: φL(x) = L_l with l = argmin |x − ξ_l| over the m evenly
// spaced points ξ. Values outside the interval clamp to the endpoints.
// Any core.Set works — level for linear correlation, random for the
// baseline, scatter for nonlinear quantization.
type ScalarEncoder struct {
	set    *core.Set
	lo, hi float64
}

// NewScalarEncoder wraps a basis set as an encoder of [lo, hi]. It panics
// when the interval is degenerate — hi <= lo, a non-finite bound, or a
// width hi − lo past the float64 range — or the set has fewer than 1
// vector. The bounds check matters: a zero-width interval makes Index
// divide by zero and a NaN/Inf bound or width makes it feed NaN into an
// int conversion, which Go leaves implementation-defined. (Note `hi <= lo`
// alone would NOT reject NaN bounds: every comparison with NaN is false.)
func NewScalarEncoder(set *core.Set, lo, hi float64) *ScalarEncoder {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsInf(hi-lo, 0) {
		panic(fmt.Sprintf("embed: non-finite interval [%v,%v]", lo, hi))
	}
	if hi <= lo {
		panic(fmt.Sprintf("embed: empty interval [%v,%v]", lo, hi))
	}
	if set.Len() < 1 {
		panic("embed: scalar encoder needs a non-empty basis set")
	}
	return &ScalarEncoder{set: set, lo: lo, hi: hi}
}

// Set returns the underlying basis set.
func (e *ScalarEncoder) Set() *core.Set { return e.set }

// Lo and Hi return the encoded interval bounds.
func (e *ScalarEncoder) Lo() float64 { return e.lo }

// Hi returns the upper bound of the encoded interval.
func (e *ScalarEncoder) Hi() float64 { return e.hi }

// Index returns the quantization index for x (clamped to the interval).
// The clamp comes before the int conversion: converting a float past the
// int range (1e18 on a unit interval, or ±Inf) is implementation-defined
// in Go and wraps on amd64.
func (e *ScalarEncoder) Index(x float64) int {
	m := e.set.Len()
	if m == 1 {
		return 0
	}
	if math.IsNaN(x) {
		panic("embed: cannot encode NaN")
	}
	if x <= e.lo {
		return 0
	}
	if x >= e.hi {
		return m - 1
	}
	return int(math.Round((x - e.lo) / (e.hi - e.lo) * float64(m-1)))
}

// Value returns the quantization point ξ_i represented by index i.
func (e *ScalarEncoder) Value(i int) float64 {
	m := e.set.Len()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("embed: index %d outside [0,%d)", i, m))
	}
	if m == 1 {
		return (e.lo + e.hi) / 2
	}
	return e.lo + float64(i)*(e.hi-e.lo)/float64(m-1)
}

// Encode maps x to its quantization level's hypervector (shared, do not
// mutate).
func (e *ScalarEncoder) Encode(x float64) *bitvec.Vector {
	return e.set.At(e.Index(x))
}

// DecodeIndex returns the index of the basis vector most similar to q —
// the φℓ⁻¹ nearest-label step of Section 2.3 — by walking the set's
// neighbour transitions (core.Set.Walk); ties resolve to the lowest index.
// It allocates nothing once the set's walk is built.
func (e *ScalarEncoder) DecodeIndex(q *bitvec.Vector) int {
	idx, _ := e.set.Walk().Nearest(q, nil)
	return idx
}

// Decode returns the value represented by the basis vector most similar to
// q.
func (e *ScalarEncoder) Decode(q *bitvec.Vector) float64 {
	return e.Value(e.DecodeIndex(q))
}

// DecodeBound returns the value whose basis vector is most similar to the
// binding a ⊗ b — the fused unbind-then-decode step regression prediction
// uses. The set's walk reads a ⊗ b word by word, so no bound query is
// materialized and nothing is allocated once the walk is built. Ties
// resolve to the lowest index, as in DecodeIndex.
func (e *ScalarEncoder) DecodeBound(a, b *bitvec.Vector) float64 {
	idx, _ := e.set.Walk().NearestXor(a, b, nil)
	return e.Value(idx)
}

// ---------------------------------------------------------------------------
// Circular (angle) encoder
// ---------------------------------------------------------------------------

// CircularEncoder quantizes a periodic quantity of the given period onto m
// hypervectors placed at phases i·period/m, wrapping at the period
// boundary — so period and 0 encode to the same vector, which is precisely
// what level encoders cannot do. Works with a circular basis set for
// correlation-preserving encoding; accepts any set for baselines.
type CircularEncoder struct {
	set    *core.Set
	period float64
}

// NewCircularEncoder wraps a basis set as an encoder of a periodic value
// with the given period (2π for radians, 24 for hours, 365 for days…). It
// panics unless the period is positive and finite.
func NewCircularEncoder(set *core.Set, period float64) *CircularEncoder {
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("embed: period must be positive and finite, got %v", period))
	}
	if set.Len() < 1 {
		panic("embed: circular encoder needs a non-empty basis set")
	}
	return &CircularEncoder{set: set, period: period}
}

// Set returns the underlying basis set.
func (e *CircularEncoder) Set() *core.Set { return e.set }

// Period returns the encoder's period.
func (e *CircularEncoder) Period() float64 { return e.period }

// Index returns the wrapped quantization index for x. A NaN or infinite x
// has no phase and panics.
func (e *CircularEncoder) Index(x float64) int {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("embed: cannot encode %v", x))
	}
	m := e.set.Len()
	q := x / e.period
	if math.IsInf(q, 0) {
		// A finite x past period·MaxFloat64 (a period below 1): reduce it
		// modulo the period first, which math.Mod does exactly.
		q = math.Mod(x, e.period) / e.period
	}
	frac := math.Mod(q, 1)
	if frac < 0 {
		frac++
	}
	i := int(math.Round(frac * float64(m)))
	if i >= m {
		i = 0
	}
	return i
}

// Phase returns the phase value represented by index i, in [0, period).
func (e *CircularEncoder) Phase(i int) float64 {
	m := e.set.Len()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("embed: index %d outside [0,%d)", i, m))
	}
	return float64(i) * e.period / float64(m)
}

// Encode maps the periodic value x to its quantization hypervector.
func (e *CircularEncoder) Encode(x float64) *bitvec.Vector {
	return e.set.At(e.Index(x))
}

// DecodeIndex returns the index of the most similar basis vector, found by
// walking the set's neighbour transitions (core.Set.Walk); ties resolve to
// the lowest index. It allocates nothing once the set's walk is built.
func (e *CircularEncoder) DecodeIndex(q *bitvec.Vector) int {
	idx, _ := e.set.Walk().Nearest(q, nil)
	return idx
}

// Decode returns the phase represented by the most similar basis vector.
func (e *CircularEncoder) Decode(q *bitvec.Vector) float64 {
	return e.Phase(e.DecodeIndex(q))
}

// ---------------------------------------------------------------------------
// Record encoder (key ⊗ value bundles)
// ---------------------------------------------------------------------------

// RecordEncoder implements the paper's Table-1 sample encoding
// ⊕_{i=1..n} K_i ⊗ V_i: every field i has a fixed random key hypervector
// K_i, a field value is encoded by the field's value encoder, and the bound
// pairs are bundled with majority on bitvec's bit-sliced kernel
// (bitvec.MajorityTieVector), which fuses the key binding into its word
// loop. An encode allocates only its result.
type RecordEncoder struct {
	keys   []*bitvec.Vector
	tieVec *bitvec.Vector
}

// NewRecordEncoder creates a record encoder with nFields random keys drawn
// from a substream of seed. Even-count majority ties resolve to the bits of
// a fixed random tie vector, so encoding is deterministic, independent of
// call order, and safe to invoke from concurrent goroutines.
func NewRecordEncoder(d, nFields int, seed uint64) *RecordEncoder {
	if nFields <= 0 {
		panic(fmt.Sprintf("embed: record encoder needs at least one field, got %d", nFields))
	}
	keyStream := rng.Sub(seed, "record/keys")
	keys := make([]*bitvec.Vector, nFields)
	for i := range keys {
		keys[i] = bitvec.Random(d, keyStream)
	}
	return &RecordEncoder{
		keys:   keys,
		tieVec: bitvec.Random(d, rng.Sub(seed, "record/ties")),
	}
}

// NumFields returns the number of fields the encoder was created with.
func (e *RecordEncoder) NumFields() int { return len(e.keys) }

// Key returns field i's key hypervector.
func (e *RecordEncoder) Key(i int) *bitvec.Vector { return e.keys[i] }

// EncodeVectors bundles the key-bound field value hypervectors. The number
// of values must equal the number of fields.
func (e *RecordEncoder) EncodeVectors(values []*bitvec.Vector) *bitvec.Vector {
	if len(values) != len(e.keys) {
		panic(fmt.Sprintf("embed: record has %d fields, got %d values", len(e.keys), len(values)))
	}
	return bitvec.MajorityTieVector(values, e.keys, e.tieVec)
}

// FieldEncoder is anything that can map a float64 to a hypervector; both
// ScalarEncoder and CircularEncoder satisfy it.
type FieldEncoder interface {
	Encode(x float64) *bitvec.Vector
}

// EncodeRecord encodes a numeric record: value i goes through enc[i] (a
// single encoder may be reused across fields by passing it at several
// positions). Up to 64 fields it allocates only its result.
func (e *RecordEncoder) EncodeRecord(values []float64, enc []FieldEncoder) *bitvec.Vector {
	if len(values) != len(e.keys) || len(enc) != len(e.keys) {
		panic(fmt.Sprintf("embed: record wants %d values+encoders, got %d/%d",
			len(e.keys), len(values), len(enc)))
	}
	var buf [64]*bitvec.Vector
	vecs := buf[:0]
	for i, x := range values {
		vecs = append(vecs, enc[i].Encode(x))
	}
	return e.EncodeVectors(vecs)
}

// ---------------------------------------------------------------------------
// Sequence and n-gram encoders (Section 3.1)
// ---------------------------------------------------------------------------

// SequenceEncoder implements φ(w) = ⊕_i Π^i(φ(α_i)): each element is
// permuted by its position and the results are bundled. Position 0 is
// rotated by 0.
type SequenceEncoder struct {
	d      int
	tieVec *bitvec.Vector
}

// NewSequenceEncoder returns a sequence encoder over dimension d; ties in
// the bundling majority resolve to a fixed random tie vector derived from
// seed, keeping encoding order-independent and goroutine-safe.
func NewSequenceEncoder(d int, seed uint64) *SequenceEncoder {
	if d <= 0 {
		panic(fmt.Sprintf("embed: dimension must be positive, got %d", d))
	}
	return &SequenceEncoder{d: d, tieVec: bitvec.Random(d, rng.Sub(seed, "seq/ties"))}
}

// Encode bundles the position-permuted elements. It panics on an empty
// sequence.
func (e *SequenceEncoder) Encode(items []*bitvec.Vector) *bitvec.Vector {
	if len(items) == 0 {
		panic("embed: cannot encode empty sequence")
	}
	acc := bitvec.NewAccumulator(e.d)
	for i, v := range items {
		acc.Add(v.Rotate(i))
	}
	return acc.ThresholdTieVector(e.tieVec)
}

// NGramEncoder encodes a sequence as the bundle of its n-grams, each
// n-gram being the binding of its position-permuted elements — the
// classical text-classification encoding of Rahimi et al.
type NGramEncoder struct {
	d      int
	n      int
	tieVec *bitvec.Vector
}

// NewNGramEncoder returns an n-gram encoder; n must be at least 1. Majority
// ties resolve to a fixed random tie vector derived from seed.
func NewNGramEncoder(d, n int, seed uint64) *NGramEncoder {
	if d <= 0 {
		panic(fmt.Sprintf("embed: dimension must be positive, got %d", d))
	}
	if n < 1 {
		panic(fmt.Sprintf("embed: n-gram size must be >= 1, got %d", n))
	}
	return &NGramEncoder{d: d, n: n, tieVec: bitvec.Random(d, rng.Sub(seed, "ngram/ties"))}
}

// N returns the gram size.
func (e *NGramEncoder) N() int { return e.n }

// Encode bundles the bound n-grams of the sequence. Sequences shorter than
// n are encoded as a single shorter gram.
func (e *NGramEncoder) Encode(items []*bitvec.Vector) *bitvec.Vector {
	if len(items) == 0 {
		panic("embed: cannot encode empty sequence")
	}
	n := e.n
	if len(items) < n {
		n = len(items)
	}
	acc := bitvec.NewAccumulator(e.d)
	gram := bitvec.New(e.d)
	for start := 0; start+n <= len(items); start++ {
		gram.CopyFrom(items[start].Rotate(n - 1))
		for k := 1; k < n; k++ {
			gram.XorInPlace(items[start+k].Rotate(n - 1 - k))
		}
		acc.Add(gram)
	}
	return acc.ThresholdTieVector(e.tieVec)
}

// ---------------------------------------------------------------------------
// Graph encoder (GraphHD)
// ---------------------------------------------------------------------------

// EncodeGraph implements the GraphHD encoding (Nunes et al., DATE 2022):
// each vertex takes the basis vector at its degree-centrality rank, each
// edge binds its endpoints' vectors, and the graph is the majority bundle
// of its edges, ties resolving to tieVec. Structurally similar graphs thus
// share encodings, and isomorphic graphs encode identically up to tie
// order. A graph with no edges encodes to tieVec.
func EncodeGraph(g *graph.Graph, vertexBasis *core.Set, tieVec *bitvec.Vector) *bitvec.Vector {
	rank := g.DegreeRank()
	acc := bitvec.NewAccumulator(vertexBasis.Dim())
	tmp := bitvec.New(vertexBasis.Dim())
	for _, e := range g.Edges() {
		vertexBasis.At(rank[e[0]]).XorInto(vertexBasis.At(rank[e[1]]), tmp)
		acc.Add(tmp)
	}
	return acc.ThresholdTieVector(tieVec)
}
