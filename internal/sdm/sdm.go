// Package sdm implements Kanerva's Sparse Distributed Memory (Kanerva
// 1988, the paper's reference [18]) — the associative memory that underlies
// HDC's theory of quasi-orthogonality and serves as a large-capacity
// cleanup memory: write noisy hypervectors in, read denoised ones back.
//
// The memory consists of H hard locations with fixed random addresses in
// {0,1}^d. A write at address A increments/decrements the bipolar counters
// of every hard location within Hamming radius r of A; a read at A sums the
// counters of the activated locations and thresholds. Reads can be iterated:
// starting from a noisy cue, each read output is used as the next address,
// converging to the stored item when the cue is within the critical
// distance.
package sdm

import (
	"fmt"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// Memory is a sparse distributed memory. Reads (Read, ReadIterative,
// ActivationCount) are pure and safe from any number of goroutines as long
// as no Write runs concurrently; Write requires exclusive access.
type Memory struct {
	d         int
	radius    int
	addresses *index.Set            // fixed at New, never mutated
	counters  []*bitvec.Accumulator // per hard location bipolar counters
}

// Config parameterizes a Memory.
type Config struct {
	Dim       int // hypervector dimension d
	Locations int // number of hard locations H
	Radius    int // activation Hamming radius r

	Seed uint64

	// Index optionally routes the activation scan through a bit-sampling
	// sketch index over the hard-location addresses (built once at New —
	// the addresses never change), under the usual index.Set threshold.
	// Candidates are screened by signature distance against the
	// slack-widened scaled radius, then verified exactly, so activations
	// contain no false positives; misses are bounded by the configured
	// RadiusSlack. Note the screen only has power when the radius sits
	// well below d/2: at the classic sparse operating point (activation
	// probability ~1%, radius just under d/2) the index detects that and
	// falls back to the exact capped-popcount scan. Nil keeps activation
	// exact.
	Index *index.Config
}

// DefaultConfig returns an operating point scaled to the given dimension:
// the radius is chosen so a location activates for ≈ 1% of random
// addresses, which at 5000 hard locations activates ~50 locations per
// access — enough overlap between a noisy cue's set and the stored item's
// set for reliable recall. (Kanerva's classic 0.1% point assumes millions
// of locations.) The radius is exposed directly for other trade-offs.
func DefaultConfig(d int) Config {
	return Config{
		Dim:       d,
		Locations: 5000,
		Radius:    activationRadius(d, 0.01),
		Seed:      1,
	}
}

// activationRadius returns the Hamming radius at which a random address
// activates a location with roughly the given probability, using the normal
// approximation to Binomial(d, 1/2).
func activationRadius(d int, p float64) int {
	// z-quantiles for the tail probabilities we care about.
	var z float64
	switch {
	case p >= 0.01:
		z = 2.326
	case p >= 0.001:
		z = 3.090
	default:
		z = 3.719
	}
	mean := float64(d) / 2
	sd := 0.5 * sqrtf(float64(d))
	r := int(mean - z*sd)
	if r < 0 {
		r = 0
	}
	return r
}

func sqrtf(x float64) float64 {
	// Newton iterations suffice and avoid importing math for one call.
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 32; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// New creates a memory with uniformly random hard-location addresses.
func New(cfg Config) *Memory {
	if cfg.Dim <= 0 {
		panic(fmt.Sprintf("sdm: dimension must be positive, got %d", cfg.Dim))
	}
	if cfg.Locations <= 0 {
		panic(fmt.Sprintf("sdm: need at least one hard location, got %d", cfg.Locations))
	}
	if cfg.Radius < 0 || cfg.Radius >= cfg.Dim {
		panic(fmt.Sprintf("sdm: radius %d outside [0, %d)", cfg.Radius, cfg.Dim))
	}
	src := rng.Sub(cfg.Seed, "sdm/addresses")
	addresses := make([]*bitvec.Vector, cfg.Locations)
	counters := make([]*bitvec.Accumulator, cfg.Locations)
	for i := range addresses {
		addresses[i] = bitvec.Random(cfg.Dim, src)
		counters[i] = bitvec.NewAccumulator(cfg.Dim)
	}
	ixCfg := index.Config{Disabled: true}
	if cfg.Index != nil {
		ixCfg = *cfg.Index
	}
	return &Memory{
		d:         cfg.Dim,
		radius:    cfg.Radius,
		addresses: index.NewSet(addresses, ixCfg, nil),
		counters:  counters,
	}
}

// Dim returns the hypervector dimension.
func (m *Memory) Dim() int { return m.d }

// Locations returns the number of hard locations.
func (m *Memory) Locations() int { return m.addresses.Len() }

// Radius returns the activation radius.
func (m *Memory) Radius() int { return m.radius }

// activated returns the indexes of hard locations within the radius of a,
// ascending. With an address index engaged, candidates come from the
// signature screen plus exact verification; otherwise (and whenever the
// screen has no power at this radius) the scan is the exact early-abandon
// kernel: in the sparse regime ~99% of locations miss, and almost all of
// them exceed the radius within the first few words.
func (m *Memory) activated(a *bitvec.Vector) []int {
	return m.addresses.WithinRadius(a, m.radius, nil)
}

// ActivationCount returns how many hard locations the address activates —
// useful for validating that the radius is in the sparse regime.
func (m *Memory) ActivationCount(a *bitvec.Vector) int { return len(m.activated(a)) }

// Write stores data at address: every activated location's counters move
// toward the data word (auto-association uses Write(x, x)). Each update is
// one word-parallel accumulator addition.
func (m *Memory) Write(address, data *bitvec.Vector) {
	m.check(address)
	m.check(data)
	for _, i := range m.activated(address) {
		m.counters[i].Add(data)
	}
}

// Read recalls the word stored at address by summing activated counters
// and thresholding at zero (ties resolve to the address's own bit, the
// customary symmetric choice). ok is false when no location activates.
// The sum runs location-major (sequential counter reads, unlike the
// dimension-major scan that strides across every location per dimension)
// and the threshold packs output words in registers.
func (m *Memory) Read(address *bitvec.Vector) (word *bitvec.Vector, ok bool) {
	m.check(address)
	act := m.activated(address)
	if len(act) == 0 {
		return nil, false
	}
	sums := make([]int64, m.d)
	for _, i := range act {
		for k, c := range m.counters[i].Counts() {
			sums[k] += int64(c)
		}
	}
	out := bitvec.New(m.d)
	words := out.Words()
	aw := address.Words()
	for wi := range words {
		base := wi << 6
		n := m.d - base
		if n > 64 {
			n = 64
		}
		var pos, ties uint64
		for b, s := range sums[base : base+n : base+n] {
			if s > 0 {
				pos |= 1 << uint(b)
			} else if s == 0 {
				ties |= 1 << uint(b)
			}
		}
		words[wi] = pos | ties&aw[wi]
	}
	return out, true
}

// ReadIterative reads repeatedly, feeding each output back as the next
// address, until a fixed point or maxIters. It returns the final word, the
// number of iterations used, and ok=false when some read found no active
// locations. This is Kanerva's converging recall: within the critical
// distance the sequence contracts to the stored item.
func (m *Memory) ReadIterative(address *bitvec.Vector, maxIters int) (word *bitvec.Vector, iters int, ok bool) {
	cur := address
	for i := 0; i < maxIters; i++ {
		next, readOK := m.Read(cur)
		if !readOK {
			return nil, i, false
		}
		if next.Equal(cur) {
			return next, i + 1, true
		}
		cur = next
	}
	return cur, maxIters, true
}

func (m *Memory) check(v *bitvec.Vector) {
	if v.Dim() != m.d {
		panic(fmt.Sprintf("sdm: vector dimension %d, memory dimension %d", v.Dim(), m.d))
	}
}
