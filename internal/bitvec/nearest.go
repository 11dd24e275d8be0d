package bitvec

import (
	"fmt"
	"math/bits"
)

// Fused nearest-neighbor kernels. Prototype search, cleanup memories and
// decoders all reduce to "scan a candidate list for the smallest Hamming
// distance to a query"; doing that through Vector.Distance costs a float
// division per candidate and forbids early exit. The kernels here work on
// raw words, allocate nothing, and abandon a candidate as soon as its
// partial popcount exceeds the best distance seen so far.

// DistanceMany stores the Hamming distance from q to every vs[i] into
// dst[i] and returns dst; pass a slice of len(vs) (or nil to allocate).
func DistanceMany(q *Vector, vs []*Vector, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(vs))
	}
	if len(dst) != len(vs) {
		panic(fmt.Sprintf("bitvec: DistanceMany dst length %d, want %d", len(dst), len(vs)))
	}
	qw := q.words
	for i, v := range vs {
		q.mustMatch(v)
		n := 0
		for j, w := range v.words {
			n += bits.OnesCount64(qw[j] ^ w)
		}
		dst[i] = n
	}
	return dst
}

// Nearest returns the index of the vector in vs nearest to q (ties resolve
// to the lowest index) together with its Hamming distance. It is
// NearestPruned with a bound no distance reaches: it allocates nothing and
// abandons candidates early once they exceed the best distance. It panics
// on an empty candidate list or mismatched dimensions.
func Nearest(q *Vector, vs []*Vector) (idx, hd int) {
	if len(vs) == 0 {
		panic("bitvec: Nearest over zero candidates")
	}
	return NearestPruned(q, vs, q.d+1)
}

// XorDistance returns the Hamming distance between the binding x ⊗ y and z
// without materializing the bound vector — the bind-then-compare step of
// unbinding-based decoding fused into one popcount loop.
func XorDistance(x, y, z *Vector) int {
	x.mustMatch(y)
	x.mustMatch(z)
	n := 0
	for i, w := range x.words {
		n += bits.OnesCount64(w ^ y.words[i] ^ z.words[i])
	}
	return n
}

// NearestXor returns the index in vs of the vector nearest to the binding
// x ⊗ y (ties resolve to the lowest index) and the Hamming distance, with
// the same early-exit scan as Nearest.
func NearestXor(x, y *Vector, vs []*Vector) (idx, hd int) {
	if len(vs) == 0 {
		panic("bitvec: NearestXor over zero candidates")
	}
	x.mustMatch(y)
	best, bestIdx := x.d+1, 0
	for i, v := range vs {
		x.mustMatch(v)
		n := 0
		for j, w := range v.words {
			n += bits.OnesCount64(x.words[j] ^ y.words[j] ^ w)
			if n >= best {
				break
			}
		}
		if n < best {
			best, bestIdx = n, i
		}
	}
	return bestIdx, best
}
