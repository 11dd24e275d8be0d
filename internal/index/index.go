// Package index owns the nearest-vector search over collections of binary
// hypervectors: the step both of the paper's learning frameworks end in
// (the class vector of Section 2.2, the label level of Section 2.3) and the
// cleanup of symbolic HDC.
//
// Set is the one type consumers search through. It holds an immutable
// collection and answers Nearest and WithinRadius, and it alone decides
// between two ways of answering:
//
//   - Below Config.MinSize, or with Disabled set, every query is an exact
//     scan (bitvec.Nearest, or bitvec.DistanceBounded for a radius).
//   - Past it, a bit-sampling sketch index (Index) covers a prefix of the
//     collection, and an exact scan covers the vectors appended since. A
//     tail vector wins only on a strictly smaller distance, so exact ties
//     still resolve to the lowest index. NewSet(vs, cfg, prev) keeps prev's
//     index while that tail stays within an eighth of the indexed prefix
//     (at least 64 vectors), so a trickle of appends never forces a
//     rebuild; past that bound it builds a new index over all of vs.
//
// The sketch index trades a tunable, measurable amount of recall for a
// large constant-factor win by exploiting the concentration of pairwise
// Hamming distances in high dimension (the codeword-spectrum effect): for a
// query correlated with one stored vector and quasi-orthogonal to the rest,
// the distance gap is Θ(d) while the estimation error of an m-bit sample is
// Θ(√m·d/m), so a small signature separates the true neighbor from the bulk
// with overwhelming probability.
//
//   - Build: sample m distinct bit positions (deterministically from a
//     seed), extract each stored vector's m-bit signature, pack the
//     signatures into contiguous uint64 words. O(n·m) bit extracts, done
//     once per generation.
//
//   - Nearest(q): extract q's signature, compute the n signature distances
//     (m/64-word popcounts — the sublinear pass), select the C candidates
//     with the smallest signature distance via an O(n + m) counting
//     selection, then exactly re-rank only those C, each with the
//     early-abandon kernel bitvec.DistanceBounded against the best distance
//     so far. No false positives are possible — the winner's reported
//     distance is exact — and the miss probability decays exponentially in
//     m and C.
//
//   - WithinRadius(q, r): screen by signature distance against a
//     conservatively slack-widened scaled radius, then verify every
//     survivor exactly with bitvec.DistanceBounded. Results contain no false
//     positives; false negatives are bounded by the configured slack
//     (RadiusSlack standard deviations). When the screen has no
//     discriminative power (radius near d/2, the sparse-SDM operating
//     point), it detects that and falls back to the exact scan.
//
// Exactness contract: with Candidates >= the indexed prefix the candidate
// set is every indexed vector in index order, so Nearest is bit-identical
// to the linear scan bitvec.Nearest — including tie resolution to the
// lowest index. With a negative RadiusSlack, WithinRadius is the exact
// scan. The differential tests and FuzzSetNearest pin both, and the tests
// measure recall floors for the approximate modes.
package index

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/rng"
)

// Config parameterizes a Set and its sketch index. The zero value selects
// the defaults below (it is NOT disabled); set Disabled to keep a Set on
// the exact scan at any size.
type Config struct {
	// Disabled keeps every Set on the exact linear scan regardless of
	// size.
	Disabled bool
	// SignatureBits is m, the number of sampled bit positions per stored
	// vector; <= 0 selects 256. Larger m sharpens the sketch estimate
	// (recall) and slows the candidate pass; m >= d degenerates to a full
	// permuted copy and is clamped to d at build time.
	SignatureBits int
	// Candidates is C, the number of sketch candidates re-ranked exactly;
	// <= 0 selects max(64, n/32). C >= n makes Nearest bit-identical to
	// the exact linear scan.
	Candidates int
	// MinSize is the collection size below which a Set keeps the plain
	// linear scan (the sketch pass only pays for itself past a few
	// thousand vectors); <= 0 selects 2048.
	MinSize int
	// Seed derives the sampled bit positions. Equal (Seed, SignatureBits,
	// dimension) always sample the same positions, so index builds are
	// reproducible.
	Seed uint64
	// RadiusSlack widens the WithinRadius signature screen by this many
	// standard deviations of the signature-distance estimator. Zero
	// selects the default 5 — conservatively near-lossless; each unit of
	// slack cuts the false-negative tail by roughly an order of
	// magnitude. A NEGATIVE value disables screening entirely (exact
	// radius scan).
	RadiusSlack float64
}

// DefaultConfig returns the default index configuration: 256-bit
// signatures, auto candidate count, auto-enable at 2048 vectors, radius
// slack 5.
func DefaultConfig() Config {
	return Config{SignatureBits: 256, MinSize: 2048, RadiusSlack: 5}
}

// normalized fills zero fields with defaults.
func (c Config) normalized() Config {
	if c.SignatureBits <= 0 {
		c.SignatureBits = 256
	}
	if c.MinSize <= 0 {
		c.MinSize = 2048
	}
	if c.RadiusSlack == 0 {
		c.RadiusSlack = 5
	}
	return c
}

// enabled reports whether a collection of n vectors should be indexed
// under this configuration: not disabled and at least MinSize (after
// defaulting) vectors.
func (c Config) enabled(n int) bool {
	return !c.Disabled && n >= c.normalized().MinSize
}

// maxTail is how many un-indexed vectors may accumulate behind an index of
// the given size before NewSet rebuilds rather than serve the tail with an
// exact scan: an eighth of the indexed prefix, at least 64. Below this the
// tail scan stays cheap relative to the indexed prefix, and steady
// append/lookup interleavings amortize rebuild cost.
func maxTail(indexed int) int {
	if s := indexed / 8; s > 64 {
		return s
	}
	return 64
}

// Set is an immutable collection of hypervectors that answers nearest and
// radius queries, scanning exactly or through a sketch index over a prefix
// as the package comment describes. It shares (does not copy) the vectors;
// they must not be mutated for the set's lifetime. All methods are safe
// for any number of concurrent goroutines.
type Set struct {
	vecs []*bitvec.Vector
	ix   *Index // covers vecs[:ix.Len()]; nil while the set scans exactly
}

// NewSet returns the Set over vs under cfg. prev may be nil; otherwise vs
// must extend prev's vectors by appending (an append-only collection's
// next generation), and prev's index is kept while the vectors appended
// past it number at most an eighth of its size (at least 64). It panics on
// mismatched dimensions once the set is large enough to index.
func NewSet(vs []*bitvec.Vector, cfg Config, prev *Set) *Set {
	s := &Set{vecs: vs}
	if !cfg.enabled(len(vs)) {
		return s
	}
	if prev != nil && prev.ix != nil && len(vs)-prev.ix.Len() <= maxTail(prev.ix.Len()) {
		s.ix = prev.ix
	} else {
		s.ix = New(vs, cfg)
	}
	return s
}

// Len returns the number of vectors in the set.
func (s *Set) Len() int { return len(s.vecs) }

// Vectors returns the set's vectors in order (shared, not copied; do not
// modify).
func (s *Set) Vectors() []*bitvec.Vector { return s.vecs }

// Indexed returns how many leading vectors the sketch index covers: 0
// while the set scans exactly, Len() right after a build.
func (s *Set) Indexed() int {
	if s.ix == nil {
		return 0
	}
	return s.ix.Len()
}

// Nearest returns the index and exact Hamming distance of the nearest
// vector in the set (approximate past the index threshold unless
// Candidates covers the indexed prefix). Exact ties resolve to the lowest
// index. It panics on an empty set.
func (s *Set) Nearest(q *bitvec.Vector) (idx, hd int) {
	if s.ix == nil {
		return bitvec.Nearest(q, s.vecs)
	}
	idx, hd = s.ix.Nearest(q)
	// The tail appended since the build wins only when strictly nearer, so
	// the lower-indexed prefix keeps exact ties.
	n := s.ix.Len()
	if ti, th := bitvec.NearestPruned(q, s.vecs[n:], hd); ti >= 0 {
		idx, hd = n+ti, th
	}
	return idx, hd
}

// WithinRadius appends to out the indexes of every vector within Hamming
// radius r of q, ascending and with no false positives, and returns out.
// The indexed prefix is screened as Index.WithinRadius describes; the rest
// is scanned exactly.
func (s *Set) WithinRadius(q *bitvec.Vector, r int, out []int) []int {
	n := 0
	if s.ix != nil {
		out = s.ix.WithinRadius(q, r, out)
		n = s.ix.Len()
	}
	return appendWithin(out, q, s.vecs[n:], n, r)
}

// appendWithin appends base+i for every vs[i] within Hamming radius r of q.
func appendWithin(out []int, q *bitvec.Vector, vs []*bitvec.Vector, base, r int) []int {
	for i, v := range vs {
		if _, within := bitvec.DistanceBounded(v, q, r); within {
			out = append(out, base+i)
		}
	}
	return out
}

// Index is a bit-sampling sketch index over a fixed slice of vectors. It
// shares (does not copy) the indexed vectors; they must not be mutated for
// the index's lifetime. All methods are reads after New, safe for any
// number of concurrent goroutines; each query borrows its working memory
// from the index, so a warm query allocates nothing.
type Index struct {
	d          int
	m          int   // signature bits
	candidates int   // resolved C
	positions  []int // sampled bit positions, ascending
	sigWords   int   // words per signature
	sigs       []uint64
	vecs       []*bitvec.Vector
	slack      float64

	mu   sync.Mutex      // guards free
	free []*queryScratch // query scratch no query is using
}

// queryScratch is one query's working memory: the query signature, the n
// signature distances and their histogram.
type queryScratch struct {
	sig  []uint64
	ds   []int32
	hist []int
}

// getScratch borrows a query's working memory, allocating it only when
// every earlier one is in use; putScratch returns it. The free list keeps
// one scratch per query that ever ran concurrently, and a mutex is cheap
// next to a query's signature pass.
func (ix *Index) getScratch() *queryScratch {
	ix.mu.Lock()
	if n := len(ix.free); n > 0 {
		qs := ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.mu.Unlock()
		return qs
	}
	ix.mu.Unlock()
	return &queryScratch{
		sig:  make([]uint64, ix.sigWords),
		ds:   make([]int32, len(ix.vecs)),
		hist: make([]int, ix.m+1),
	}
}

func (ix *Index) putScratch(qs *queryScratch) {
	ix.mu.Lock()
	ix.free = append(ix.free, qs)
	ix.mu.Unlock()
}

// New builds an index over vs with the given configuration. It panics on an
// empty collection or mismatched dimensions — indexing nothing is a
// programming error, and NewSet gates on MinSize first. Consumers search
// through a Set; New is the sketch alone, for measuring it.
func New(vs []*bitvec.Vector, cfg Config) *Index {
	if len(vs) == 0 {
		panic("index: cannot index zero vectors")
	}
	cfg = cfg.normalized()
	d := vs[0].Dim()
	m := cfg.SignatureBits
	if m > d {
		m = d
	}
	c := cfg.Candidates
	if c <= 0 {
		c = len(vs) / 32
		if c < 64 {
			c = 64
		}
	}
	if c > len(vs) {
		c = len(vs)
	}
	ix := &Index{
		d:          d,
		m:          m,
		candidates: c,
		positions:  samplePositions(d, m, cfg.Seed),
		sigWords:   (m + 63) / 64,
		vecs:       vs,
		slack:      cfg.RadiusSlack,
	}
	ix.sigs = make([]uint64, len(vs)*ix.sigWords)
	for i, v := range vs {
		if v.Dim() != d {
			panic(fmt.Sprintf("index: vector %d has dimension %d, index %d", i, v.Dim(), d))
		}
		ix.signatureInto(v, ix.sigs[i*ix.sigWords:(i+1)*ix.sigWords])
	}
	return ix
}

// samplePositions draws m distinct positions from [0, d) via Floyd's
// algorithm on a named substream and returns them ascending (sequential
// word access when extracting signatures, and a canonical order for
// reproducibility).
func samplePositions(d, m int, seed uint64) []int {
	src := rng.Sub(seed, "index/positions")
	taken := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for i := d - m; i < d; i++ {
		j := src.Intn(i + 1)
		if _, dup := taken[j]; dup {
			j = i
		}
		taken[j] = struct{}{}
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// signatureInto extracts the sampled bits of v into dst (sigWords words).
func (ix *Index) signatureInto(v *bitvec.Vector, dst []uint64) {
	words := v.Words()
	for w := range dst {
		dst[w] = 0
	}
	for j, p := range ix.positions {
		bit := words[p>>6] >> (uint(p) & 63) & 1
		dst[j>>6] |= bit << (uint(j) & 63)
	}
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vecs) }

// SignatureBits returns the resolved signature width m.
func (ix *Index) SignatureBits() int { return ix.m }

// Candidates returns the resolved exact-re-rank candidate count C.
func (ix *Index) Candidates() int { return ix.candidates }

// Exact reports whether Nearest is bit-identical to the linear scan
// (C == n).
func (ix *Index) Exact() bool { return ix.candidates >= len(ix.vecs) }

// Nearest returns the index and exact Hamming distance of the
// (approximate) nearest stored vector: candidate generation by signature
// distance, exact re-rank of the top C candidates with bitvec.DistanceBounded.
// Ties — in signature distance during selection and in exact distance
// during re-rank — resolve toward the lowest index, so exact mode (C == n)
// reproduces bitvec.Nearest bit for bit.
func (ix *Index) Nearest(q *bitvec.Vector) (idx, hd int) {
	if q.Dim() != ix.d {
		panic(fmt.Sprintf("index: query dimension %d, index %d", q.Dim(), ix.d))
	}
	n := len(ix.vecs)
	sw := ix.sigWords
	qs := ix.getScratch()
	defer ix.putScratch(qs)
	qsig, ds, hist := qs.sig, qs.ds, qs.hist
	ix.signatureInto(q, qsig)
	clear(hist)

	// Signature-distance pass: the sublinear bulk of the work, m/64 words
	// per stored vector instead of d/64. int32 holds any signature
	// distance (m is clamped to d, and dimensions are ints).
	for i := 0; i < n; i++ {
		base := i * sw
		sd := 0
		for w := 0; w < sw; w++ {
			sd += bits.OnesCount64(qsig[w] ^ ix.sigs[base+w])
		}
		ds[i] = int32(sd)
		hist[sd]++
	}

	// Counting selection of the C smallest signature distances: find the
	// threshold t such that everything strictly below t is in, and fill
	// the remaining quota with distance-t candidates in index order.
	c := ix.candidates
	cum, t := 0, 0
	for t <= ix.m && cum+hist[t] <= c {
		cum += hist[t]
		t++
	}
	quota := c - cum // how many distance-t candidates still fit

	// Exact re-rank, ascending index order so distance ties resolve low.
	best, bestIdx := ix.d+1, -1
	for i := 0; i < n; i++ {
		sd := int(ds[i])
		if sd > t || (sd == t && quota == 0) {
			continue
		}
		if sd == t {
			quota--
		}
		if nhd, within := bitvec.DistanceBounded(q, ix.vecs[i], best-1); within && nhd < best {
			best, bestIdx = nhd, i
		}
	}
	return bestIdx, best
}

// radiusThreshold returns the signature screen threshold for full-distance
// radius r: the expected signature distance of a vector AT the radius plus
// slack standard deviations of the Binomial(m, r/d) estimator, and whether
// the screen has any discriminative power at all (a threshold at or past
// the quasi-orthogonal bulk mean m/2 keeps essentially every stored vector,
// so screening would only add overhead).
func (ix *Index) radiusThreshold(r int) (t int, useful bool) {
	if ix.slack <= 0 {
		return ix.m, false
	}
	p := float64(r) / float64(ix.d)
	if p >= 1 {
		return ix.m, false
	}
	mean := float64(ix.m) * p
	sd := math.Sqrt(float64(ix.m) * p * (1 - p))
	t = int(math.Ceil(mean + ix.slack*sd))
	if t >= ix.m {
		t = ix.m
	}
	return t, float64(t) < float64(ix.m)/2
}

// WithinRadius appends to out the indexes of every stored vector within
// Hamming radius r of q (ascending, no false positives) and returns out.
// Vectors whose signature distance exceeds the slack-widened scaled radius
// are screened out before the exact check; with the default slack the
// per-vector miss probability at the radius boundary is below 1e-6, and
// vectors well inside the radius are safer still. When the screen cannot
// separate the radius from the quasi-orthogonal bulk (r near d/2 or
// RadiusSlack <= 0) the scan is exact.
func (ix *Index) WithinRadius(q *bitvec.Vector, r int, out []int) []int {
	if q.Dim() != ix.d {
		panic(fmt.Sprintf("index: query dimension %d, index %d", q.Dim(), ix.d))
	}
	t, useful := ix.radiusThreshold(r)
	if !useful {
		return appendWithin(out, q, ix.vecs, 0, r)
	}
	sw := ix.sigWords
	qs := ix.getScratch()
	defer ix.putScratch(qs)
	qsig := qs.sig
	ix.signatureInto(q, qsig)
	for i, v := range ix.vecs {
		base := i * sw
		sd := 0
		for w := 0; w < sw; w++ {
			sd += bits.OnesCount64(qsig[w] ^ ix.sigs[base+w])
		}
		if sd > t {
			continue
		}
		if _, within := bitvec.DistanceBounded(v, q, r); within {
			out = append(out, i)
		}
	}
	return out
}
