package bitvec

import (
	"fmt"
	"math/bits"
)

// Fused nearest-neighbor kernels. Prototype search, cleanup memories and
// decoders all reduce to "find the candidate with the smallest Hamming
// distance to a query"; doing that through Vector.Distance costs a float
// division per candidate and forbids early exit. The kernels here work on
// raw words and allocate nothing. Nearest scans an unordered candidate
// list and abandons a candidate as soon as its partial popcount exceeds
// the best distance seen so far. BasisWalk decodes against an ordered
// basis set, whose neighbours differ in few words, by walking the
// differences.

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

// BasisWalk answers nearest-vector queries against an ordered set
// L_0, …, L_{m−1} by walking its neighbour transitions T_k = L_k ⊕ L_{k+1}.
// For any query q the distances obey, exactly,
//
//	δH(q, L_{k+1}) = δH(q, L_k) + |T_k| − 2·popcount((q ⊕ L_k) ∧ T_k),
//
// because the bits of T_k that q shares with L_k are the ones it differs
// from in L_{k+1}. One dense popcount gives δH(q, L_0); every other
// distance costs one pass over the nonzero words of one T_k. Level and
// circular basis sets change few words per step (Algorithm 1 flips each
// bit at most once per segment, and the circular set's second phase
// replays the first phase's transitions), so a 128-level set at
// d = 10000 walks about 4,400 words against 20,096 for a dense scan,
// whatever the query. A random set changes every word at every step, so
// its walk reads as many words as a dense scan and pays more for each.
//
// A BasisWalk shares (does not copy) the set's first vector, which must not
// be mutated for the walk's lifetime. All methods are pure reads, safe for
// any number of concurrent goroutines, and allocate nothing.
type BasisWalk struct {
	first *Vector  // L_0
	zero  []uint64 // the all-zeros query words Nearest binds q with
	steps []walkStep
	words []int32     // entry e's word index
	trans []walkEntry // entry e's words of T_k and L_k ∧ T_k
}

// walkStep is step k: |T_k| and the end of its entries (step k's entries
// run from the previous step's end).
type walkStep struct{ flips, end int32 }

// walkEntry is one nonzero word of a transition T_k and L_k's bits there.
type walkEntry struct{ t, low uint64 }

// NewBasisWalk prepares the walk over the ordered set vs. A counting pass
// sizes its arrays exactly before they are filled. It panics on an empty
// set or mismatched dimensions.
func NewBasisWalk(vs []*Vector) *BasisWalk {
	if len(vs) == 0 {
		panic("bitvec: BasisWalk over zero vectors")
	}
	first := vs[0]
	n := 0
	for k := 1; k < len(vs); k++ {
		first.mustMatch(vs[k])
		prev := vs[k-1].words
		for j, w := range vs[k].words {
			if w != prev[j] {
				n++
			}
		}
	}
	bw := &BasisWalk{
		first: first,
		zero:  make([]uint64, len(first.words)),
		steps: make([]walkStep, len(vs)-1),
		words: make([]int32, n),
		trans: make([]walkEntry, n),
	}
	e := 0
	for k := range bw.steps {
		cur, next := vs[k].words, vs[k+1].words
		flips := 0
		for j, w := range cur {
			if t := w ^ next[j]; t != 0 {
				bw.words[e], bw.trans[e] = int32(j), walkEntry{t, w & t}
				flips += bits.OnesCount64(t)
				e++
			}
		}
		bw.steps[k] = walkStep{int32(flips), int32(e)}
	}
	return bw
}

// Len returns the number of vectors in the walked set.
func (bw *BasisWalk) Len() int { return len(bw.steps) + 1 }

// Nearest returns the index of the set vector nearest to q (ties resolve
// to the lowest index) and its Hamming distance. When dist is non-nil it
// must have length Len(), and dist[k] receives δH(q, L_k) for every k.
func (bw *BasisWalk) Nearest(q *Vector, dist []int) (idx, hd int) {
	bw.first.mustMatch(q)
	return bw.walk(q.words, bw.zero, dist)
}

// NearestXor is Nearest for the binding x ⊗ y, which it reads word by word
// without materializing: the fused unbind-then-decode step of regression.
func (bw *BasisWalk) NearestXor(x, y *Vector, dist []int) (idx, hd int) {
	bw.first.mustMatch(x)
	bw.first.mustMatch(y)
	return bw.walk(x.words, y.words, dist)
}

// walk runs the recurrence for the query x ⊕ y and keeps the first
// minimum.
func (bw *BasisWalk) walk(xw, yw []uint64, dist []int) (idx, hd int) {
	if dist != nil && len(dist) != bw.Len() {
		panic(fmt.Sprintf("bitvec: BasisWalk dist length %d, want %d", len(dist), bw.Len()))
	}
	n := 0
	for j, w := range bw.first.words {
		n += bits.OnesCount64(xw[j] ^ yw[j] ^ w)
	}
	if dist != nil {
		dist[0] = n
	}
	best, bestIdx := n, 0
	start := 0
	for k, s := range bw.steps {
		words, trans := bw.words[start:s.end], bw.trans[start:s.end]
		trans = trans[:len(words)] // lets the compiler drop trans[i]'s bounds check
		start = int(s.end)
		c := 0
		for i, j := range words {
			c += bits.OnesCount64((xw[j]^yw[j])&trans[i].t ^ trans[i].low)
		}
		n += int(s.flips) - 2*c
		if dist != nil {
			dist[k+1] = n
		}
		if n < best {
			best, bestIdx = n, k+1
		}
	}
	return bestIdx, best
}
