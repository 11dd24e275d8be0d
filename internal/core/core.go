// Package core implements the paper's subject matter: basis-hypervector
// sets, the stochastically created hypervectors that represent atomic
// information in Hyperdimensional Computing.
//
// Five generators are provided:
//
//   - RandomSet — i.i.d. uniform hypervectors for symbolic data (Section 3.1);
//     all pairs quasi-orthogonal.
//   - LevelLegacySet — the pre-existing level-hypervector construction
//     (Rahimi et al.), also known as the thermometer code: successive
//     levels flip a fixed quota of previously unflipped bits, so pairwise
//     distances are exact, not stochastic.
//   - LevelSet — the paper's Algorithm 1: intermediate levels draw each bit
//     from either endpoint through a shared uniform interpolation filter, so
//     E[δ(L_i, L_j)] = (j−i)/(2(m−1)) with maximal information content
//     (Proposition 4.1).
//   - CircularSet — the paper's main contribution (Section 5.1): a two-phase
//     construction whose expected distance profile is proportional to the
//     circular (arc) distance between the angles the vectors represent, with
//     antipodal vectors quasi-orthogonal.
//   - ScatterSet — scatter codes (Section 4.2): levels placed at target
//     expected distances by performing the Markov-chain-calibrated number of
//     uniformly random flips; the input-to-similarity mapping is nonlinear.
//
// LevelSet and CircularSet accept the r hyperparameter of Section 5.2 that
// interpolates toward a random set (r = 0 keeps full correlation, r = 1 is
// indistinguishable from RandomSet), implemented by concatenating level
// segments with n = r + (1−r)(m−1) transitions each.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/markov"
	"hdcirc/internal/rng"
)

// Kind identifies a basis-hypervector family.
type Kind int

const (
	// KindRandom is the uncorrelated basis set for symbols.
	KindRandom Kind = iota
	// KindLevelLegacy is the fixed-flip-quota level construction.
	KindLevelLegacy
	// KindLevel is the paper's Algorithm 1 interpolation construction.
	KindLevel
	// KindCircular is the two-phase circular construction.
	KindCircular
	// KindScatter is the Markov-calibrated scatter-code construction.
	KindScatter
)

func (k Kind) String() string {
	switch k {
	case KindRandom:
		return "random"
	case KindLevelLegacy:
		return "level-legacy"
	case KindLevel:
		return "level"
	case KindCircular:
		return "circular"
	case KindScatter:
		return "scatter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a family name (as produced by Kind.String) back into a
// Kind; it accepts any case. "thermometer" names the legacy level set: a
// thermometer code flips a growing prefix of one random permutation, which
// is exactly LevelLegacySet's construction.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "random":
		return KindRandom, nil
	case "level-legacy", "legacy", "thermometer":
		return KindLevelLegacy, nil
	case "level":
		return KindLevel, nil
	case "circular":
		return KindCircular, nil
	case "scatter":
		return KindScatter, nil
	default:
		return 0, fmt.Errorf("core: unknown basis kind %q", s)
	}
}

// Kinds lists every basis family in declaration order.
func Kinds() []Kind {
	return []Kind{KindRandom, KindLevelLegacy, KindLevel, KindCircular, KindScatter}
}

// Set is an ordered basis-hypervector set. Index i corresponds to the i-th
// atomic value (the i-th symbol, the i-th quantization point of an interval,
// or the angle 2π·i/m).
type Set struct {
	kind Kind
	d    int
	r    float64
	vecs []*bitvec.Vector

	walkOnce sync.Once
	walk     *bitvec.BasisWalk // built by the first Walk call
}

// Kind returns the family the set was generated from.
func (s *Set) Kind() Kind { return s.kind }

// Dim returns the hypervector dimension d.
func (s *Set) Dim() int { return s.d }

// Len returns the set cardinality m.
func (s *Set) Len() int { return len(s.vecs) }

// R returns the correlation-relaxation hyperparameter the set was built
// with (0 for families that do not take one).
func (s *Set) R() float64 { return s.r }

// At returns the i-th basis vector. The vector is shared, not copied;
// callers must not mutate it.
func (s *Set) At(i int) *bitvec.Vector { return s.vecs[i] }

// Vectors returns the backing slice (shared, not copied).
func (s *Set) Vectors() []*bitvec.Vector { return s.vecs }

// Walk returns the set's decode walk (bitvec.BasisWalk): the nearest-vector
// search the encoders decode through. It is built once, on the first call,
// so a set that is only encoded never builds one. Safe for concurrent use.
func (s *Set) Walk() *bitvec.BasisWalk {
	s.walkOnce.Do(func() { s.walk = bitvec.NewBasisWalk(s.vecs) })
	return s.walk
}

// validate panics on non-sensical set parameters; generation happens at
// model-construction time where a panic is the right failure mode for a
// programming error.
func validate(m, d int) {
	if m <= 0 {
		panic(fmt.Sprintf("core: set size must be positive, got %d", m))
	}
	if d <= 0 {
		panic(fmt.Sprintf("core: dimension must be positive, got %d", d))
	}
}

// RandomSet generates m i.i.d. uniform hypervectors of dimension d.
func RandomSet(m, d int, src *rng.Stream) *Set {
	validate(m, d)
	vecs := make([]*bitvec.Vector, m)
	for i := range vecs {
		vecs[i] = bitvec.Random(d, src)
	}
	return &Set{kind: KindRandom, d: d, vecs: vecs}
}

// LevelLegacySet generates level-hypervectors with the pre-existing method:
// L1 is uniform; each of the m−1 transitions flips a disjoint quota of
// ⌊d/2⌋/(m−1) not-previously-flipped bits (chosen through one random
// permutation of the coordinates), so δ(L_i, L_j) is deterministic given
// the quota and L_1, L_m share exactly ⌊d/2⌋ flipped bits.
func LevelLegacySet(m, d int, src *rng.Stream) *Set {
	validate(m, d)
	vecs := make([]*bitvec.Vector, m)
	vecs[0] = bitvec.Random(d, src)
	if m == 1 {
		return &Set{kind: KindLevelLegacy, d: d, vecs: vecs}
	}
	perm := src.Perm(d)
	total := d / 2
	for l := 1; l < m; l++ {
		v := vecs[l-1].Clone()
		// Flip the next quota of coordinates from the shared permutation.
		from := total * (l - 1) / (m - 1)
		to := total * l / (m - 1)
		for _, p := range perm[from:to] {
			v.FlipBit(p)
		}
		vecs[l] = v
	}
	return &Set{kind: KindLevelLegacy, d: d, vecs: vecs}
}

// LevelSet generates level-hypervectors with the paper's Algorithm 1
// (interpolation filters), i.e. LevelSetR with r = 0.
func LevelSet(m, d int, src *rng.Stream) *Set { return LevelSetR(m, d, 0, src) }

// LevelSetR generates level-hypervectors with the r hyperparameter of
// Section 5.2. r = 0 is exactly Algorithm 1 (one segment spanning the whole
// set); r = 1 yields independent random vectors; intermediate values
// concatenate level segments of n = r + (1−r)(m−1) transitions, each with
// fresh random endpoints and a fresh interpolation filter. The threshold for
// level l is τ_l = 1 − ((l−1) mod n)/n, as in the paper. Each level is
// built a word at a time (interpolate), bit-identical to the per-bit loop
// the package tests keep as the reference.
func LevelSetR(m, d int, r float64, src *rng.Stream) *Set {
	validate(m, d)
	if r < 0 || r > 1 {
		panic(fmt.Sprintf("core: r hyperparameter %v outside [0,1]", r))
	}
	vecs := make([]*bitvec.Vector, m)
	if m == 1 {
		vecs[0] = bitvec.Random(d, src)
		return &Set{kind: KindLevel, d: d, r: r, vecs: vecs}
	}
	n := r + (1-r)*float64(m-1) // transitions per segment, n ≥ 1

	var start, end *bitvec.Vector // current segment endpoints
	var phi []float64             // current segment interpolation filter
	segment := -1
	for l := 0; l < m; l++ { // l is 0-based: paper's l−1
		t := float64(l)
		s := int(t / n)
		p := t - float64(s)*n
		// Guard against floating-point: t/n a hair below an integer makes p
		// ≈ n; treat it as the next segment start.
		if n-p < 1e-9 {
			s++
			p = 0
		}
		if s != segment {
			if start == nil {
				start = bitvec.Random(d, src)
			} else {
				start = end
			}
			end = bitvec.Random(d, src)
			phi = uniforms(d, src, phi)
			segment = s
		}
		if p == 0 {
			vecs[l] = start.Clone()
			continue
		}
		vecs[l] = interpolate(start, end, phi, 1-p/n)
	}
	return &Set{kind: KindLevel, d: d, r: r, vecs: vecs}
}

// interpolate builds the level at threshold tau between a segment's
// endpoints: bit k comes from end where phi[k] >= tau and from start
// elsewhere. It works one 64-bit word at a time: the 64 float comparisons
// of a word are packed into a mask, branch-free, and the word is selected
// as start ^ ((start ^ end) & mask).
func interpolate(start, end *bitvec.Vector, phi []float64, tau float64) *bitvec.Vector {
	v := bitvec.New(start.Dim())
	sw, ew, out := start.Words(), end.Words(), v.Words()
	for wi := range out {
		// Shift the comparisons in from the word's last position down, so
		// every shift is by a constant 1.
		var mask uint64
		for k := min(len(phi), wi*64+64) - 1; k >= wi*64; k-- {
			var b uint64
			if phi[k] >= tau {
				b = 1
			}
			mask = mask<<1 | b
		}
		out[wi] = sw[wi] ^ (sw[wi]^ew[wi])&mask
	}
	return v
}

// uniforms fills (reusing buf when possible) a slice of d uniform [0,1)
// samples.
func uniforms(d int, src *rng.Stream, buf []float64) []float64 {
	if cap(buf) < d {
		buf = make([]float64, d)
	}
	buf = buf[:d]
	for i := range buf {
		buf[i] = src.Float64()
	}
	return buf
}

// CircularSet generates circular-hypervectors (Section 5.1) with r = 0.
func CircularSet(m, d int, src *rng.Stream) *Set { return CircularSetR(m, d, 0, src) }

// CircularSetR generates circular-hypervectors with the r hyperparameter.
// For even m the construction is the paper's two-phase algorithm: phase 1
// builds m/2+1 level-hypervectors (with r applied to phase 1 only, per
// Section 5.2); phase 2 replays the phase-1 transitions T_i = C_i ⊗ C_{i+1}
// onto the running vector to walk back to C_1 around the other side of the
// circle. For odd m, a set of size 2m is generated and every other element
// kept (the paper's footnote 1).
func CircularSetR(m, d int, r float64, src *rng.Stream) *Set {
	validate(m, d)
	if r < 0 || r > 1 {
		panic(fmt.Sprintf("core: r hyperparameter %v outside [0,1]", r))
	}
	if m == 1 {
		return &Set{kind: KindCircular, d: d, r: r, vecs: []*bitvec.Vector{bitvec.Random(d, src)}}
	}
	if m%2 != 0 {
		big := CircularSetR(2*m, d, r, src)
		vecs := make([]*bitvec.Vector, m)
		for i := range vecs {
			vecs[i] = big.vecs[2*i]
		}
		return &Set{kind: KindCircular, d: d, r: r, vecs: vecs}
	}
	half := m / 2
	phase1 := LevelSetR(half+1, d, r, src)

	vecs := make([]*bitvec.Vector, m)
	for i := 0; i <= half; i++ {
		vecs[i] = phase1.vecs[i]
	}
	// Transitions between consecutive phase-1 levels.
	trans := make([]*bitvec.Vector, half)
	for i := 0; i < half; i++ {
		trans[i] = phase1.vecs[i].Xor(phase1.vecs[i+1])
	}
	// Phase 2: C_i = C_{i−1} ⊗ T_{i−m/2−1} (1-based), i = m/2+2 … m.
	for i := half + 1; i < m; i++ {
		vecs[i] = vecs[i-1].Xor(trans[i-half-1])
	}
	return &Set{kind: KindCircular, d: d, r: r, vecs: vecs}
}

// ScatterCalibration selects how ScatterSet converts a target expected
// distance into a flip count.
type ScatterCalibration int

const (
	// CalibrationMarkov uses the expected absorption time of the paper's
	// Section 4.2 Markov chain (first time the walk reaches the target
	// distance).
	CalibrationMarkov ScatterCalibration = iota
	// CalibrationAnalytic uses the closed-form flips-with-replacement
	// inverse f = ln(1−2Δ)/ln(1−2/d), which makes the post-flip expected
	// distance exactly Δ.
	CalibrationAnalytic
)

func (c ScatterCalibration) String() string {
	switch c {
	case CalibrationMarkov:
		return "markov"
	case CalibrationAnalytic:
		return "analytic"
	default:
		return fmt.Sprintf("ScatterCalibration(%d)", int(c))
	}
}

// ScatterSet generates scatter codes: level j is obtained from L_1 by
// performing the calibrated number of uniformly random flips (positions
// drawn with replacement) for target distance Δ_{1,j} = (j−1)/(2(m−1)).
// Unlike LevelSet, the similarity structure between *intermediate* pairs is
// a nonlinear function of index distance.
func ScatterSet(m, d int, cal ScatterCalibration, src *rng.Stream) *Set {
	validate(m, d)
	vecs := make([]*bitvec.Vector, m)
	vecs[0] = bitvec.Random(d, src)
	if m == 1 {
		return &Set{kind: KindScatter, d: d, vecs: vecs}
	}
	for j := 1; j < m; j++ {
		delta := float64(j) / (2 * float64(m-1))
		var flips float64
		switch cal {
		case CalibrationAnalytic:
			f, err := markov.AnalyticFlips(d, math.Min(delta, 0.5-1e-12))
			if err != nil {
				panic(fmt.Sprintf("core: scatter calibration failed: %v", err))
			}
			flips = f
		default:
			k := int(math.Round(delta * float64(d)))
			if k < 1 {
				k = 1
			}
			f, err := markov.ExpectedFlipsRecurrence(d, k)
			if err != nil {
				panic(fmt.Sprintf("core: scatter calibration failed: %v", err))
			}
			flips = f
		}
		v := vecs[0].Clone()
		for f := 0; f < int(math.Round(flips)); f++ {
			v.FlipBit(src.Intn(d))
		}
		vecs[j] = v
	}
	return &Set{kind: KindScatter, d: d, vecs: vecs}
}

// LevelExpectedDistance returns Δ_{i,j} = |j−i|/(2(m−1)), the expected
// normalized distance between levels i and j (0-based) of an Algorithm-1
// set of size m (Proposition 4.1).
func LevelExpectedDistance(m, i, j int) float64 {
	if m < 2 {
		return 0
	}
	return math.Abs(float64(j-i)) / (2 * float64(m-1))
}

// CircularExpectedDistance returns the expected normalized distance between
// circular-hypervectors i and j (0-based) of a set of size m: the
// arc-proportional profile min(lag, m−lag)/m realized by the two-phase
// construction, triangular in the lag rather than cosine-shaped.
func CircularExpectedDistance(m, i, j int) float64 {
	if m < 2 {
		return 0
	}
	lag := i - j
	if lag < 0 {
		lag = -lag
	}
	lag %= m
	if m-lag < lag {
		lag = m - lag
	}
	return float64(lag) / float64(m)
}

// SimilarityMatrix returns the m×m matrix of pairwise similarities
// 1 − δ(S_i, S_j) of a basis set — the quantity plotted in the paper's
// Figures 3 and 6.
func SimilarityMatrix(s *Set) [][]float64 {
	m := s.Len()
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			out[i][j] = s.At(i).Similarity(s.At(j))
		}
	}
	return out
}

// Config bundles the parameters of a basis set so experiments can sweep
// families generically.
type Config struct {
	Kind Kind
	M    int     // set cardinality
	D    int     // hypervector dimension
	R    float64 // correlation-relaxation hyperparameter (level/circular)

	Calibration ScatterCalibration // scatter only
}

// Build generates the configured set from the given stream.
func (c Config) Build(src *rng.Stream) *Set {
	switch c.Kind {
	case KindRandom:
		return RandomSet(c.M, c.D, src)
	case KindLevelLegacy:
		return LevelLegacySet(c.M, c.D, src)
	case KindLevel:
		return LevelSetR(c.M, c.D, c.R, src)
	case KindCircular:
		return CircularSetR(c.M, c.D, c.R, src)
	case KindScatter:
		return ScatterSet(c.M, c.D, c.Calibration, src)
	default:
		panic(fmt.Sprintf("core: unknown basis kind %v", c.Kind))
	}
}
