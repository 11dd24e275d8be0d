package bitvec

// Per-bit reference implementations of the bundling and permutation
// kernels. These are the original (obviously correct) loops the
// word-parallel kernels in bundle.go, bitvec.go and nearest.go are
// differential-tested against; they are not used on any hot path. Keep
// them byte-for-byte boring: their only job is to be easy to audit.

// referenceAddWeighted is the per-bit accumulation loop: bit i of v
// contributes +w when set and −w when clear.
func (a *Accumulator) referenceAddWeighted(v *Vector, w int32) {
	if v.Dim() != a.d {
		panic("bitvec: dimension mismatch")
	}
	for i := 0; i < a.d; i++ {
		if v.words[i>>6]>>(uint(i)&63)&1 == 1 {
			a.counts[i] += w
		} else {
			a.counts[i] -= w
		}
	}
	a.n += int(w)
}

// referenceThreshold is the per-bit thresholding loop, consuming one coin
// bit per tied dimension in dimension order (the coin word is refilled
// every 64 consumed bits).
func (a *Accumulator) referenceThreshold(src Source) *Vector {
	v := New(a.d)
	var coin uint64
	coinLeft := 0
	for i, c := range a.counts {
		switch {
		case c > 0:
			v.setBit(i)
		case c == 0:
			if coinLeft == 0 {
				coin = src.Uint64()
				coinLeft = 64
			}
			if coin&1 == 1 {
				v.setBit(i)
			}
			coin >>= 1
			coinLeft--
		}
	}
	return v
}

// referenceThresholdTieVector is the per-bit tie-vector thresholding loop.
func (a *Accumulator) referenceThresholdTieVector(tv *Vector) *Vector {
	if tv.Dim() != a.d {
		panic("bitvec: tie vector dimension mismatch")
	}
	v := New(a.d)
	for i, c := range a.counts {
		switch {
		case c > 0:
			v.setBit(i)
		case c == 0:
			if tv.Bit(i) == 1 {
				v.setBit(i)
			}
		}
	}
	return v
}

// referenceMajority bundles through an integer accumulator — the original
// Majority implementation and the spec for the carry-save-adder fast path.
func referenceMajority(vs []*Vector, src Source) *Vector {
	if len(vs) == 0 {
		panic("bitvec: Majority of zero vectors")
	}
	acc := NewAccumulator(vs[0].Dim())
	for _, v := range vs {
		acc.referenceAddWeighted(v, 1)
	}
	return acc.referenceThreshold(src)
}

// referenceHammingDistance is the per-bit distance loop — the spec for
// HammingDistance, DistanceBounded and the pruned nearest scans.
func referenceHammingDistance(a, b *Vector) int {
	if a.Dim() != b.Dim() {
		panic("bitvec: dimension mismatch")
	}
	n := 0
	for i := 0; i < a.d; i++ {
		if a.Bit(i) != b.Bit(i) {
			n++
		}
	}
	return n
}

// referenceNearestPruned is the per-bit spec for NearestPruned: full
// distances, strict improvement over the running bound, lowest index wins
// ties.
func referenceNearestPruned(q *Vector, vs []*Vector, bound int) (idx, hd int) {
	best, bestIdx := bound, -1
	for i, v := range vs {
		if n := referenceHammingDistance(q, v); n < best {
			best, bestIdx = n, i
		}
	}
	return bestIdx, best
}

// referenceRotateBits is the per-bit cyclic rotation: output bit
// (i+k) mod d equals input bit i. k must already be reduced to [0, d).
func (v *Vector) referenceRotateBits(k int) *Vector {
	r := New(v.d)
	if k == 0 {
		copy(r.words, v.words)
		return r
	}
	for i := 0; i < v.d; i++ {
		if v.words[i>>6]>>(uint(i)&63)&1 == 1 {
			j := i + k
			if j >= v.d {
				j -= v.d
			}
			r.setBit(j)
		}
	}
	return r
}
