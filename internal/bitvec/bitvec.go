// Package bitvec implements dense binary hypervectors packed into 64-bit
// words, together with the three HDC operations the paper relies on:
// binding (element-wise XOR), bundling (element-wise majority) and
// permutation (cyclic shift). All operations are dimension-independent and
// allocation-conscious.
//
// Every hot path is a word-parallel kernel over the packed representation,
// never a per-bit loop:
//
//   - Binding and distance (XOR, popcount) are straight word loops.
//   - Bundling accumulation (Accumulator.Add/Sub/AddWeighted) extracts 64
//     bits per load and updates the bipolar counters branch-free — random
//     hypervector bits make branches mispredict half the time.
//   - Thresholding (Threshold, ThresholdTieVector) packs output words in
//     registers with sign arithmetic, with a dedicated kernel per tie mode.
//   - Majority and MajorityTieVector run one bit-sliced carry-save-adder
//     kernel (majorityCSA) for any operand count: it counts all 64
//     positions of a word at once into bits.Len(k) bit-planes and never
//     materializes integer counters. Ties follow a TieBreak mode or a fixed
//     tie vector, and per-operand keys can be XORed in the word loop — the
//     record encoder's fused ⊕ᵢ Kᵢ ⊗ Vᵢ.
//   - Rotation (RotateBits, Rotate) is two d-bit word shifts, O(d/64) for
//     any dimension including non-multiples of 64.
//   - Nearest-neighbor search (Nearest, NearestXor, DistanceMany and
//     XorDistance in nearest.go; DistanceBounded and NearestPruned in
//     pruned.go) fuses bind/compare/argmin into allocation-free scans with
//     early exit.
//
// The per-bit originals are kept in reference.go as the spec the kernels
// are differential-tested against (kernels_test.go) — every kernel is
// bit-identical to its reference, including random tie-coin consumption.
//
// A Vector is a point in H = {0,1}^d. The zero value is not usable; create
// vectors with New, NewFromBits or Random.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a binary hypervector of a fixed dimension d, packed
// little-endian into 64-bit words: bit i of the vector is bit (i%64) of
// word i/64. Bits beyond d in the final word are always zero; every
// operation maintains that invariant so popcount-based distances stay exact.
type Vector struct {
	d     int
	words []uint64
}

// wordsFor returns the number of 64-bit words needed for d bits.
func wordsFor(d int) int { return (d + 63) / 64 }

// New returns the all-zeros vector of dimension d. It panics if d <= 0;
// a zero- or negative-dimensional hyperspace is a programming error, not a
// runtime condition.
func New(d int) *Vector {
	if d <= 0 {
		panic(fmt.Sprintf("bitvec: dimension must be positive, got %d", d))
	}
	return &Vector{d: d, words: make([]uint64, wordsFor(d))}
}

// NewFromBits builds a vector from an explicit bit slice, mostly useful in
// tests and examples. Values other than 0 are treated as 1.
func NewFromBits(bitsIn []int) *Vector {
	v := New(len(bitsIn))
	for i, b := range bitsIn {
		if b != 0 {
			v.setBit(i)
		}
	}
	return v
}

// tailMask returns the mask of valid bits in the final word.
func (v *Vector) tailMask() uint64 {
	r := v.d % 64
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(r)) - 1
}

// clearTail zeroes the invalid bits of the final word.
func (v *Vector) clearTail() { v.words[len(v.words)-1] &= v.tailMask() }

// Dim returns the dimension d of the hyperspace the vector lives in.
func (v *Vector) Dim() int { return v.d }

// Words exposes the packed backing words (not a copy). Callers must not set
// bits beyond the dimension.
func (v *Vector) Words() []uint64 { return v.words }

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.d)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. Dimensions must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

// Bit returns bit i as 0 or 1. It panics when i is out of range.
func (v *Vector) Bit(i int) int {
	v.check(i)
	return int(v.words[i>>6]>>(uint(i)&63)) & 1
}

// SetBit sets bit i to b (0 or 1; nonzero means 1).
func (v *Vector) SetBit(i int, b int) {
	v.check(i)
	if b != 0 {
		v.setBit(i)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// FlipBit inverts bit i.
func (v *Vector) FlipBit(i int) {
	v.check(i)
	v.words[i>>6] ^= 1 << (uint(i) & 63)
}

func (v *Vector) setBit(i int) { v.words[i>>6] |= 1 << (uint(i) & 63) }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.d {
		panic(fmt.Sprintf("bitvec: bit index %d out of range [0,%d)", i, v.d))
	}
}

func (v *Vector) mustMatch(o *Vector) {
	if v.d != o.d {
		panic(fmt.Sprintf("bitvec: dimension mismatch %d vs %d", v.d, o.d))
	}
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether v and o are identical vectors of the same dimension.
func (v *Vector) Equal(o *Vector) bool {
	if v.d != o.d {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Xor returns the binding v ⊗ o as a new vector. Binding associates
// information: the result is dissimilar to both operands, is commutative,
// distributes over bundling, and is its own inverse (a ⊗ (a ⊗ b) = b).
func (v *Vector) Xor(o *Vector) *Vector {
	v.mustMatch(o)
	r := New(v.d)
	for i := range v.words {
		r.words[i] = v.words[i] ^ o.words[i]
	}
	return r
}

// XorInto stores v ⊗ o into dst (which may alias v or o) and returns dst.
func (v *Vector) XorInto(o, dst *Vector) *Vector {
	v.mustMatch(o)
	v.mustMatch(dst)
	for i := range v.words {
		dst.words[i] = v.words[i] ^ o.words[i]
	}
	return dst
}

// XorInPlace sets v = v ⊗ o and returns v.
func (v *Vector) XorInPlace(o *Vector) *Vector { return v.XorInto(o, v) }

// Not returns the complement of v as a new vector.
func (v *Vector) Not() *Vector {
	r := New(v.d)
	for i := range v.words {
		r.words[i] = ^v.words[i]
	}
	r.clearTail()
	return r
}

// HammingDistance returns the number of differing bits between v and o.
func (v *Vector) HammingDistance(o *Vector) int {
	v.mustMatch(o)
	n := 0
	for i := range v.words {
		n += bits.OnesCount64(v.words[i] ^ o.words[i])
	}
	return n
}

// Distance returns the normalized Hamming distance δ ∈ [0,1], the metric
// the paper uses throughout.
func (v *Vector) Distance(o *Vector) float64 {
	return float64(v.HammingDistance(o)) / float64(v.d)
}

// Similarity returns 1 − δ(v, o).
func (v *Vector) Similarity(o *Vector) float64 { return 1 - v.Distance(o) }

// RotateBits returns the cyclic-shift permutation Π^k(v) as a new vector:
// output bit (i+k) mod d equals input bit i. Negative k rotates the other
// way; k is reduced modulo d. The rotation runs in O(d/64) for any
// dimension: it is the OR of a d-bit left shift by k (the unwrapped bits)
// and a d-bit right shift by d−k (the wrapped bits), each a straight word
// loop. Sequence and n-gram encoders call it, as Rotate, once per symbol,
// so it is a genuine hot path.
func (v *Vector) RotateBits(k int) *Vector {
	k %= v.d
	if k < 0 {
		k += v.d
	}
	r := New(v.d)
	if k == 0 {
		copy(r.words, v.words)
		return r
	}
	v.shlOrInto(r, k)
	v.shrOrInto(r, v.d-k)
	r.clearTail()
	return r
}

// Rotate is RotateBits, Π^k(v), under the name the encoders use.
func (v *Vector) Rotate(k int) *Vector { return v.RotateBits(k) }

// shlOrInto ORs v<<s (a d-bit left shift, bits shifted beyond d dropped)
// into dst. s must be in [1, d).
func (v *Vector) shlOrInto(dst *Vector, s int) {
	ws, bs := s>>6, uint(s&63)
	words := v.words
	if bs == 0 {
		for i := len(words) - 1; i >= ws; i-- {
			dst.words[i] |= words[i-ws]
		}
		return
	}
	inv := 64 - bs
	for i := len(words) - 1; i > ws; i-- {
		dst.words[i] |= words[i-ws]<<bs | words[i-ws-1]>>inv
	}
	dst.words[ws] |= words[0] << bs
}

// shrOrInto ORs v>>s (a d-bit right shift) into dst. s must be in [1, d);
// the tail bits of v beyond d are zero, so no masking is needed.
func (v *Vector) shrOrInto(dst *Vector, s int) {
	ws, bs := s>>6, uint(s&63)
	words := v.words
	n := len(words)
	if bs == 0 {
		for i := 0; i < n-ws; i++ {
			dst.words[i] |= words[i+ws]
		}
		return
	}
	inv := 64 - bs
	for i := 0; i < n-ws-1; i++ {
		dst.words[i] |= words[i+ws]>>bs | words[i+ws+1]<<inv
	}
	dst.words[n-ws-1] |= words[n-1] >> bs
}

// String renders the vector as a 0/1 string, least-significant bit first,
// truncated with an ellipsis beyond 64 bits; meant for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	n := v.d
	truncated := false
	if n > 64 {
		n = 64
		truncated = true
	}
	for i := 0; i < n; i++ {
		if v.Bit(i) == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if truncated {
		fmt.Fprintf(&b, "… (d=%d)", v.d)
	}
	return b.String()
}
