package embed

// Weighted decoding — an extension beyond the paper's nearest-vector
// decode. The nearest-label rule of Section 2.3 quantizes the prediction to
// the label grid and discards the information carried by the runner-up
// similarities. DecodeWeighted instead averages the values of the top-k
// most similar basis vectors, weighted by their similarity margin over the
// k+1-th, which interpolates between grid points and measurably reduces
// regression error on smooth targets (`hdcrepro -exp decoderablation`
// compares the two decoders on both regression datasets).

import (
	"fmt"
	"math"
	"sort"

	"hdcirc/internal/bitvec"
)

// topK returns the indexes of the k smallest distances between q and the
// set's vectors, ordered best first, along with the distances.
func topK(q *bitvec.Vector, set interface {
	Len() int
	At(int) *bitvec.Vector
}, k int) ([]int, []float64) {
	n := set.Len()
	if k > n {
		k = n
	}
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, n)
	for i := 0; i < n; i++ {
		cands[i] = cand{i, q.Distance(set.At(i))}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].idx < cands[b].idx
	})
	idx := make([]int, k)
	dist := make([]float64, k)
	for i := 0; i < k; i++ {
		idx[i], dist[i] = cands[i].idx, cands[i].d
	}
	return idx, dist
}

// weights converts top-k distances into normalized weights: each candidate
// is weighted by how much closer it is than the worst retained candidate
// (plus a floor so k = 1 and ties stay well-defined).
func weights(dist []float64) []float64 {
	worst := dist[len(dist)-1]
	w := make([]float64, len(dist))
	var sum float64
	for i, d := range dist {
		w[i] = (worst - d) + 1e-9
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// DecodeWeighted returns the similarity-weighted average of the values of
// the k most similar basis vectors. k = 1 reduces to Decode. It panics on
// k < 1.
func (e *ScalarEncoder) DecodeWeighted(q *bitvec.Vector, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("embed: DecodeWeighted needs k >= 1, got %d", k))
	}
	if k == 1 {
		return e.Decode(q)
	}
	idx, dist := topK(q, e.set, k)
	w := weights(dist)
	var out float64
	for i, ix := range idx {
		out += w[i] * e.Value(ix)
	}
	return out
}

// DecodeWeighted returns the circular-mean of the phases of the k most
// similar basis vectors, weighted by similarity margin — the directional-
// statistics analogue of the scalar version (a plain average of phases
// would break at the wrap seam).
func (e *CircularEncoder) DecodeWeighted(q *bitvec.Vector, k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("embed: DecodeWeighted needs k >= 1, got %d", k))
	}
	if k == 1 {
		return e.Decode(q)
	}
	idx, dist := topK(q, e.set, k)
	w := weights(dist)
	var c, s float64
	for i, ix := range idx {
		theta := 2 * math.Pi * e.Phase(ix) / e.period
		c += w[i] * math.Cos(theta)
		s += w[i] * math.Sin(theta)
	}
	if c == 0 && s == 0 {
		// Degenerate balance: fall back to the nearest vector.
		return e.Decode(q)
	}
	theta := math.Atan2(s, c)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	return theta * e.period / (2 * math.Pi)
}
