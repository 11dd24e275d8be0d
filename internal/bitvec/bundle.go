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

// Majority bundles the operands with the element-wise majority rule and
// returns the result: output bit i is 1 when more than half of the operands
// have bit i set. A tie, possible only for an even operand count, takes one
// fair coin bit from src, tied positions in dimension order. src may be nil
// only for an odd operand count. It panics on an empty operand list or
// mismatched dimensions.
//
// Any operand count runs on the bit-sliced carry-save-adder kernel
// (majorityCSA), which counts all 64 positions of a word simultaneously and
// never materializes integer counters. It is bit-identical to bundling
// through an Accumulator and Threshold, tie coins included.
func Majority(vs []*Vector, src Source) *Vector {
	checkOperands(vs, nil)
	if src == nil && len(vs)%2 == 0 {
		panic(errNoTieSource)
	}
	out := New(vs[0].d)
	majorityCSA(out, vs, nil, src, nil)
	return out
}

// errNoTieSource is the panic of a coin-resolving bundle handed no source
// for an operand count that can tie.
const errNoTieSource = "bitvec: an even operand count needs a random source for its ties"

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
	majorityCSA(out, vs, keys, nil, tv)
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
// non-nil and a coin from src otherwise. The caller validates the operands
// and the source.
func majorityCSA(out *Vector, vs, keys []*Vector, src Source, tv *Vector) {
	k := len(vs)
	thr := k / 2 // majority is count > thr; count == thr ties (even k only)
	nPlanes := bits.Len(uint(k))
	operand := func(i, wi int) uint64 {
		if keys == nil {
			return vs[i].words[wi]
		}
		return vs[i].words[wi] ^ keys[i].words[wi]
	}
	coins := tieCoins{src: src}
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
		if k&1 == 0 { // eq now marks the tied positions
			if tv != nil {
				word |= eq & tv.words[wi]
			} else {
				word = coins.resolve(word, eq)
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

// tieCoins resolves tied positions with fair coins: one bit of src per tied
// position, in dimension order, with a fresh word drawn every 64 ties.
// Majority and Threshold both resolve through it, so for equal sources they
// draw the same coins and agree bit for bit.
type tieCoins struct {
	src  Source
	coin uint64
	left int // unused bits left in coin
}

// resolve returns word with each position set in ties given the next coin.
// The coin state lives in locals for the loop, so it stays in registers.
func (c *tieCoins) resolve(word, ties uint64) uint64 {
	coin, left := c.coin, c.left
	for ; ties != 0; ties &= ties - 1 {
		if left == 0 {
			coin, left = c.src.Uint64(), 64
		}
		if coin&1 == 1 {
			word |= ties & -ties
		}
		coin >>= 1
		left--
	}
	c.coin, c.left = coin, left
	return word
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
	// branch-free sign kernel thresholdWord cannot classify.
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
	w2 := w + w
	for wi, word := range v.words {
		c := a.wordCounts(wi)
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
	// output, so the result bits don't form one 64-step serial dependency —
	// this kernel sits on the encoder hot path via ThresholdTieVector.
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

// wordCounts returns the counts of output word wi: 64 of them, fewer in
// the last word when d is not a multiple of 64.
func (a *Accumulator) wordCounts(wi int) []int32 {
	base := wi << 6
	end := min(base+64, a.d)
	return a.counts[base:end:end]
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
		word, ties := thresholdWord(a.wordCounts(wi))
		v.words[wi] = word | ties&tv.words[wi]
	}
	return v
}

// Threshold collapses the accumulator into a binary hypervector: bit i is 1
// when the bipolar count is positive and 0 when it is negative. A zero count
// (a tie) takes one fair coin bit from src, tied positions in dimension
// order — the coins Majority draws, so bundling through an Accumulator and
// through Majority agree bit for bit for equal sources. Every count has the
// parity of N(), so no count is zero when N() is odd; src may be nil only
// then.
func (a *Accumulator) Threshold(src Source) *Vector {
	if src == nil && a.n%2 == 0 {
		panic(errNoTieSource)
	}
	v := New(a.d)
	coins := tieCoins{src: src}
	for wi := range v.words {
		v.words[wi] = coins.resolve(thresholdWord(a.wordCounts(wi)))
	}
	return v
}
