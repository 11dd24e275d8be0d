package bitvec

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is the minimal random source bitvec needs; internal/rng.Stream
// satisfies it. Keeping the interface here avoids a dependency cycle and
// lets tests plug in counters or constants.
type Source interface {
	Uint64() uint64
}

// Random returns a hypervector whose bits are i.i.d. uniform — the paper's
// random-hypervector. Each call consumes ⌈d/64⌉ values from src.
func Random(d int, src Source) *Vector {
	v := New(d)
	for i := range v.words {
		v.words[i] = src.Uint64()
	}
	v.clearTail()
	return v
}

// TieBreak selects what Majority does with dimensions where exactly half of
// an even number of operands are set.
type TieBreak int

const (
	// TieZero resolves ties to 0.
	TieZero TieBreak = iota
	// TieOne resolves ties to 1.
	TieOne
	// TieRandom resolves each tied dimension with an independent fair coin
	// from the source passed to the bundling call.
	TieRandom
)

func (t TieBreak) String() string {
	switch t {
	case TieZero:
		return "TieZero"
	case TieOne:
		return "TieOne"
	case TieRandom:
		return "TieRandom"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// Majority bundles the operands with the element-wise majority rule and
// returns the result: output bit i is 1 when more than half of the operands
// have bit i set. Ties (possible only for an even operand count) are
// resolved per tie; src may be nil unless tie == TieRandom. It panics on an
// empty operand list or mismatched dimensions.
//
// Any operand count runs on the bit-sliced carry-save-adder kernel
// (majorityCSA), which counts all 64 positions of a word simultaneously and
// never materializes integer counters. It is bit-identical to bundling
// through an Accumulator and Threshold, tie coins included.
func Majority(vs []*Vector, tie TieBreak, src Source) *Vector {
	checkOperands(vs, nil)
	if tie == TieRandom && src == nil {
		panic("bitvec: TieRandom requires a random source")
	}
	out := New(vs[0].d)
	majorityCSA(out, vs, nil, tie, src, nil)
	return out
}

// MajorityTieVector bundles the bound operands keys[i] ⊗ vs[i] (vs[i]
// itself when keys is nil) with the element-wise majority rule, resolving
// tied positions to the bits of tv. It returns the same vector as adding
// every bound operand to an Accumulator and calling ThresholdTieVector(tv),
// without the counters or a bound intermediate: the binding is fused into
// the kernel's word loop and the result is the only allocation. A fixed tie
// vector keeps the bundle deterministic and safe for concurrent callers,
// which is what the record encoder needs. It panics on an empty operand
// list, a keys list of another length, or mismatched dimensions.
func MajorityTieVector(vs, keys []*Vector, tv *Vector) *Vector {
	checkOperands(vs, keys)
	vs[0].mustMatch(tv)
	out := New(vs[0].d)
	majorityCSA(out, vs, keys, TieZero, nil, tv)
	return out
}

// checkOperands panics unless vs is non-empty, keys is nil or as long as
// vs, and every vector shares vs[0]'s dimension.
func checkOperands(vs, keys []*Vector) {
	if len(vs) == 0 {
		panic("bitvec: Majority of zero vectors")
	}
	if keys != nil && len(keys) != len(vs) {
		panic(fmt.Sprintf("bitvec: %d keys for %d operands", len(keys), len(vs)))
	}
	v0 := vs[0]
	for _, v := range vs[1:] {
		v0.mustMatch(v)
	}
	for _, k := range keys {
		v0.mustMatch(k)
	}
}

// majorityCSA is the bundling kernel. For every 64-bit word it counts the
// operands (each XORed with its key when keys is non-nil) into bit-planes
// with carry-save adders — plane p holds bit p of the per-position count,
// and bits.Len(len(vs)) planes hold any count — then compares the
// bit-sliced counts against the majority threshold with a plane-wise
// comparator. That is O(words · operands · planes) word operations with no
// per-bit work and no counters in memory. Operands enter two at a time
// through a full adder on plane 0, the Harley–Seal step, so only one carry
// per pair ripples up the planes. Tied positions take tv's bit when tv is
// non-nil and are resolved per tie otherwise. The caller validates the
// operands.
func majorityCSA(out *Vector, vs, keys []*Vector, tie TieBreak, src Source, tv *Vector) {
	k := len(vs)
	thr := k / 2 // majority is count > thr; count == thr ties (even k only)
	nPlanes := bits.Len(uint(k))
	operand := func(i, wi int) uint64 {
		if keys == nil {
			return vs[i].words[wi]
		}
		return vs[i].words[wi] ^ keys[i].words[wi]
	}
	var coin uint64
	coinLeft := 0
	var planes [64]uint64
	for wi := range out.words {
		clear(planes[:nPlanes])
		i := 0
		for ; i+1 < k; i += 2 {
			a, b := operand(i, wi), operand(i+1, wi)
			p0 := planes[0]
			u := p0 ^ a
			planes[0] = u ^ b
			ripple(&planes, (p0&a)|(u&b), 1)
		}
		if i < k {
			ripple(&planes, operand(i, wi), 0)
		}
		// Plane-wise comparison of the counts against thr, most significant
		// plane first: gt collects positions already decided greater, eq
		// tracks positions whose high planes still equal thr's bits.
		gt, eq := uint64(0), ^uint64(0)
		for p := nPlanes - 1; p >= 0; p-- {
			var tb uint64
			if thr>>uint(p)&1 == 1 {
				tb = ^uint64(0)
			}
			gt |= eq & planes[p] &^ tb
			eq &= ^(planes[p] ^ tb)
		}
		// Positions past d count 0: never above thr, and tied only if thr
		// is 0, that is for k = 1, which is odd and has no ties. So the
		// tail of the last word stays clear.
		word := gt
		if k&1 == 0 {
			ties := eq
			switch {
			case tv != nil:
				word |= ties & tv.words[wi]
			case tie == TieOne:
				word |= ties
			case tie == TieRandom:
				// One coin bit per tied position in dimension order — the
				// same consumption pattern as Accumulator.Threshold, so the
				// two are bit-identical for equal sources.
				for t := ties; t != 0; t &= t - 1 {
					if coinLeft == 0 {
						coin = src.Uint64()
						coinLeft = 64
					}
					if coin&1 == 1 {
						word |= t & -t
					}
					coin >>= 1
					coinLeft--
				}
			}
		}
		out.words[wi] = word
	}
}

// ripple adds carry, whose bits weigh 2^p, into the bit-planes. The carry
// dies out below plane bits.Len(count), so p stays under 64.
func ripple(planes *[64]uint64, carry uint64, p int) {
	for ; carry != 0; p++ {
		carry, planes[p&63] = planes[p&63]&carry, planes[p&63]^carry
	}
}

// Accumulator is the integer counter form of bundling. HDC training bundles
// thousands of hypervectors into a class prototype; doing that with pairwise
// majorities loses information, so models accumulate per-dimension counts
// and threshold once (or re-threshold after online updates). Counts are
// int32 per dimension: ±2 billion updates per dimension is far beyond any
// training set this library targets.
type Accumulator struct {
	d      int
	counts []int32
	n      int // number of (signed unit) additions, used for the majority threshold
}

// NewAccumulator returns an empty accumulator for dimension d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("bitvec: dimension must be positive, got %d", d))
	}
	return &Accumulator{d: d, counts: make([]int32, d)}
}

// Dim returns the accumulator dimension.
func (a *Accumulator) Dim() int { return a.d }

// N returns how many vectors have been added (minus weight on Sub).
func (a *Accumulator) N() int { return a.n }

// Add accumulates v with weight +1: each set bit contributes +1, each clear
// bit −1. This is the bipolar view of binary bundling and makes Add/Sub
// exact inverses, which the online classifier refinement relies on.
func (a *Accumulator) Add(v *Vector) { a.addWeighted(v, 1) }

// Sub removes one previously added copy of v (weight −1).
func (a *Accumulator) Sub(v *Vector) { a.addWeighted(v, -1) }

// AddWeighted accumulates v with an arbitrary integer weight. It panics
// when the weight does not fit the int32 per-dimension counters rather than
// silently truncating it.
func (a *Accumulator) AddWeighted(v *Vector, w int) {
	// MinInt32 itself is excluded: clear bits contribute −w, and negating
	// MinInt32 wraps back to MinInt32 — the one counter value the
	// branch-free sign kernels in thresholdWord/posWord cannot classify.
	if w > math.MaxInt32 || w <= math.MinInt32 {
		panic(fmt.Sprintf("bitvec: weight %d overflows the int32 accumulator counters", w))
	}
	a.addWeighted(v, int32(w))
}

// addWeighted is the accumulation kernel. It walks v a 64-bit word at a
// time and updates counts branch-free: hypervector bits are fair coins, so
// a per-bit branch mispredicts half the time and dominates the loop.
func (a *Accumulator) addWeighted(v *Vector, w int32) {
	if v.Dim() != a.d {
		panic(fmt.Sprintf("bitvec: dimension mismatch %d vs %d", v.Dim(), a.d))
	}
	counts := a.counts
	w2 := w + w
	for wi, word := range v.words {
		base := wi << 6
		n := a.d - base
		if n > 64 {
			n = 64
		}
		c := counts[base : base+n : base+n]
		if len(c) == 64 {
			// +w when the bit is set, −w when clear: bit·2w − w. Two
			// independent half-word streams with constant 1-bit shifts.
			lo, hi := word, word>>32
			for b := 0; b < 32; b++ {
				c[b] += int32(lo&1)*w2 - w
				c[b+32] += int32(hi&1)*w2 - w
				lo >>= 1
				hi >>= 1
			}
			continue
		}
		for b := range c {
			c[b] += int32(word&1)*w2 - w
			word >>= 1
		}
	}
	a.n += int(w)
}

// Counts exposes the per-dimension bipolar counters (not a copy).
func (a *Accumulator) Counts() []int32 { return a.counts }

// Reset clears the accumulator for reuse.
func (a *Accumulator) Reset() {
	for i := range a.counts {
		a.counts[i] = 0
	}
	a.n = 0
}

// thresholdWord collapses one word's worth of counts into an output word and
// a tie mask, branch-free: bit b of word is 1 when counts[base+b] > 0, bit b
// of ties is 1 when the count is exactly zero. The sign tricks rely on the
// counters staying clear of math.MinInt32, which the ±2-billion-update
// budget documented on Accumulator guarantees.
func thresholdWord(c []int32) (word, ties uint64) {
	// Walk the counts high-to-low and shift finished bits in at the bottom:
	// constant 1-bit shifts are cheaper than positioning each bit with a
	// variable shift. uint32(cv−1)>>31 is 1 iff cv ≤ 0; uint32(cv|−cv)>>31
	// is 1 iff cv ≠ 0. Full words run four independent 16-bit chains per
	// output, like posWord — this kernel sits on the encoder hot path via
	// ThresholdTieVector.
	if len(c) == 64 {
		var w0, w1, w2, w3, t0, t1, t2, t3 uint64
		for i := 15; i >= 0; i-- {
			c0, c1, c2, c3 := c[i], c[i+16], c[i+32], c[i+48]
			w0 = w0<<1 | uint64(uint32(c0-1)>>31^1)
			w1 = w1<<1 | uint64(uint32(c1-1)>>31^1)
			w2 = w2<<1 | uint64(uint32(c2-1)>>31^1)
			w3 = w3<<1 | uint64(uint32(c3-1)>>31^1)
			t0 = t0<<1 | uint64(uint32(c0|-c0)>>31^1)
			t1 = t1<<1 | uint64(uint32(c1|-c1)>>31^1)
			t2 = t2<<1 | uint64(uint32(c2|-c2)>>31^1)
			t3 = t3<<1 | uint64(uint32(c3|-c3)>>31^1)
		}
		return w3<<48 | w2<<32 | w1<<16 | w0, t3<<48 | t2<<32 | t1<<16 | t0
	}
	for i := len(c) - 1; i >= 0; i-- {
		cv := c[i]
		word = word<<1 | uint64(uint32(cv-1)>>31^1)
		ties = ties<<1 | uint64(uint32(cv|-cv)>>31^1)
	}
	return word, ties
}

// ThresholdTieVector collapses the accumulator into a binary hypervector,
// resolving tied dimensions (count exactly zero) to the corresponding bit
// of tv. Using a fixed random tie vector makes thresholding deterministic
// and independent of call order, which in turn makes encoders safe to use
// from concurrent goroutines — the property the batch pipeline's parallel
// encoding relies on.
func (a *Accumulator) ThresholdTieVector(tv *Vector) *Vector {
	if tv.Dim() != a.d {
		panic(fmt.Sprintf("bitvec: tie vector dimension %d, accumulator %d", tv.Dim(), a.d))
	}
	v := New(a.d)
	for wi := range v.words {
		base := wi << 6
		n := a.d - base
		if n > 64 {
			n = 64
		}
		word, ties := thresholdWord(a.counts[base : base+n : base+n])
		v.words[wi] = word | ties&tv.words[wi]
	}
	return v
}

// posWord packs "count > 0" into a word: bit b is 1 iff c[b] > 0. Full
// words run four independent 16-bit shift-in chains so the result bits
// don't form one 64-step serial dependency.
func posWord(c []int32) (word uint64) {
	if len(c) == 64 {
		var q0, q1, q2, q3 uint64
		for i := 15; i >= 0; i-- {
			q0 = q0<<1 | uint64(uint32(c[i]-1)>>31^1)
			q1 = q1<<1 | uint64(uint32(c[i+16]-1)>>31^1)
			q2 = q2<<1 | uint64(uint32(c[i+32]-1)>>31^1)
			q3 = q3<<1 | uint64(uint32(c[i+48]-1)>>31^1)
		}
		return q3<<48 | q2<<32 | q1<<16 | q0
	}
	for i := len(c) - 1; i >= 0; i-- {
		word = word<<1 | uint64(uint32(c[i]-1)>>31^1)
	}
	return word
}

// nonNegWord packs "count ≥ 0" into a word: bit b is 1 iff c[b] >= 0.
func nonNegWord(c []int32) (word uint64) {
	if len(c) == 64 {
		var q0, q1, q2, q3 uint64
		for i := 15; i >= 0; i-- {
			q0 = q0<<1 | uint64(uint32(c[i])>>31^1)
			q1 = q1<<1 | uint64(uint32(c[i+16])>>31^1)
			q2 = q2<<1 | uint64(uint32(c[i+32])>>31^1)
			q3 = q3<<1 | uint64(uint32(c[i+48])>>31^1)
		}
		return q3<<48 | q2<<32 | q1<<16 | q0
	}
	for i := len(c) - 1; i >= 0; i-- {
		word = word<<1 | uint64(uint32(c[i])>>31^1)
	}
	return word
}

// Threshold collapses the accumulator into a binary hypervector: bit i is 1
// when the bipolar count is positive, 0 when negative, and resolved by tie
// when exactly zero. src may be nil unless tie == TieRandom.
//
// Each tie mode gets its own word kernel: TieZero is exactly "count > 0"
// and TieOne exactly "count ≥ 0", so neither needs the tie mask that
// TieRandom's coin drawing does.
func (a *Accumulator) Threshold(tie TieBreak, src Source) *Vector {
	if tie == TieRandom && src == nil {
		panic("bitvec: TieRandom requires a random source")
	}
	v := New(a.d)
	var coin uint64
	coinLeft := 0
	for wi := range v.words {
		base := wi << 6
		n := a.d - base
		if n > 64 {
			n = 64
		}
		c := a.counts[base : base+n : base+n]
		switch tie {
		case TieOne:
			v.words[wi] = nonNegWord(c)
		case TieRandom:
			word, ties := thresholdWord(c)
			for t := ties; t != 0; t &= t - 1 {
				if coinLeft == 0 {
					coin = src.Uint64()
					coinLeft = 64
				}
				if coin&1 == 1 {
					word |= t & -t
				}
				coin >>= 1
				coinLeft--
			}
			v.words[wi] = word
		default:
			// TieZero and unrecognized TieBreak values: ties stay 0, the
			// same treatment the per-bit reference gives them.
			v.words[wi] = posWord(c)
		}
	}
	return v
}
