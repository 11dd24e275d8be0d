// Package hashring implements Hyperdimensional Hashing (Heddes et al., DAC
// 2022) — the application that originally motivated circular-hypervectors,
// cited by the paper as the source of the construction it generalizes. A
// hash ring's positions are represented by a circular-hypervector set; keys
// hash to a position hypervector and are served by the member whose
// position is most similar. Because similarity degrades gracefully with
// distance (and the representation is holographic), lookups stay mostly
// correct under random bit corruption of the stored vectors — the
// robustness HD hashing is for, demonstrated by this package's tests and
// the examples/hashring program.
package hashring

import (
	"fmt"
	"sort"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

// Ring is a consistent-hashing ring over circular-hypervector positions.
// It is not safe for concurrent mutation; once membership stops changing,
// Lookup and KeySlot are read-only and safe from any number of goroutines
// (internal/serve relies on this for lock-free request routing).
type Ring struct {
	set     *core.Set
	m       int
	members map[string]int            // member name → ring slot
	slots   map[int]string            // ring slot → member name
	vectors map[string]*bitvec.Vector // member position vectors (possibly corrupted copies)
	// names/vlist mirror vectors in name-sorted order so lookups can scan
	// a slice with the fused nearest-neighbor kernel; kept in sync by
	// Add/Remove/Heal.
	names []string
	vlist []*bitvec.Vector
	seed  uint64
}

// New creates a ring with m positions (rounded up to even) of dimension d.
// It returns an error when m < 2 or d <= 0 — ring sizing often comes from
// user or operator input in a server, so a bad size must be reportable, not
// a panic.
func New(m, d int, seed uint64) (*Ring, error) {
	if m < 2 {
		return nil, fmt.Errorf("hashring: need at least 2 positions, got %d", m)
	}
	if d <= 0 {
		return nil, fmt.Errorf("hashring: dimension must be positive, got %d", d)
	}
	if m%2 != 0 {
		m++
	}
	set := core.CircularSet(m, d, rng.Sub(seed, "hashring/positions"))
	return &Ring{
		set:     set,
		m:       m,
		members: make(map[string]int),
		slots:   make(map[int]string),
		vectors: make(map[string]*bitvec.Vector),
		seed:    seed,
	}, nil
}

// Positions returns the number of ring positions m.
func (r *Ring) Positions() int { return r.m }

// Members returns the current member names in slot order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return r.members[out[i]] < r.members[out[j]] })
	return out
}

// Add places a member on the ring at the free slot that maximizes the
// minimum circular distance to existing members (the even-spreading
// strategy of HD hashing), and returns its slot. Adding an existing member
// or adding to a full ring is an error: membership churn is driven by
// external events (fleet scale-up), and a server must be able to refuse an
// overflowing join without crashing.
func (r *Ring) Add(name string) (int, error) {
	if _, ok := r.members[name]; ok {
		return 0, fmt.Errorf("hashring: member %q already present", name)
	}
	if len(r.members) >= r.m {
		return 0, fmt.Errorf("hashring: ring of %d positions is full", r.m)
	}
	slot := 0
	if len(r.members) == 0 {
		// First member lands on the slot derived from its name so layouts
		// differ between rings.
		slot = int(hash(name) % uint64(r.m))
	} else {
		bestGap := -1
		for s := 0; s < r.m; s++ {
			if _, used := r.slots[s]; used {
				continue
			}
			gap := r.m
			for _, occupied := range r.members {
				d := circDist(s, occupied, r.m)
				if d < gap {
					gap = d
				}
			}
			if gap > bestGap {
				bestGap, slot = gap, s
			}
		}
	}
	r.members[name] = slot
	r.slots[slot] = name
	r.vectors[name] = r.set.At(slot).Clone()
	r.reindex()
	return slot, nil
}

// reindex rebuilds the name-sorted lookup slices from the vectors map.
func (r *Ring) reindex() {
	r.names = r.names[:0]
	for name := range r.vectors {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.vlist = r.vlist[:0]
	for _, name := range r.names {
		r.vlist = append(r.vlist, r.vectors[name])
	}
}

// Remove deletes a member from the ring.
func (r *Ring) Remove(name string) error {
	slot, ok := r.members[name]
	if !ok {
		return fmt.Errorf("hashring: member %q not present", name)
	}
	delete(r.members, name)
	delete(r.slots, slot)
	delete(r.vectors, name)
	r.reindex()
	return nil
}

// Lookup returns the member that serves the given key: the key hashes to a
// ring position, and the member whose (stored, possibly corrupted) position
// vector is most similar to that position's hypervector wins. ok is false
// on an empty ring. The scan runs the fused nearest-neighbor kernel over
// the name-sorted member list, so exact similarity ties resolve to the
// lexicographically smallest name, with no per-lookup allocation.
func (r *Ring) Lookup(key string) (member string, ok bool) {
	if len(r.members) == 0 {
		return "", false
	}
	q := r.set.At(r.KeySlot(key))
	idx, _ := bitvec.Nearest(q, r.vlist)
	return r.names[idx], true
}

// KeySlot returns the ring slot the key hashes to.
func (r *Ring) KeySlot(key string) int {
	return int(hash(key) % uint64(r.m))
}

// Corrupt flips the given fraction of bits in every stored member position
// vector, simulating memory faults; lookups afterwards exercise HD
// hashing's graceful degradation. The ring's reference set is untouched.
func (r *Ring) Corrupt(fraction float64, stream *rng.Stream) {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("hashring: corruption fraction %v outside [0,1]", fraction))
	}
	d := r.set.Dim()
	n := int(fraction * float64(d))
	// Name order, not map order: the stream's flips must land on the same
	// members every run for a seeded corruption to be reproducible.
	for _, v := range r.vlist {
		for i := 0; i < n; i++ {
			v.FlipBit(stream.Intn(d))
		}
	}
}

// Heal restores every member's stored vector from the reference set.
func (r *Ring) Heal() {
	for name, slot := range r.members {
		r.vectors[name] = r.set.At(slot).Clone()
	}
	r.reindex()
}

// circDist is the circular slot distance between two slots on a ring of m.
func circDist(a, b, m int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if m-d < d {
		d = m - d
	}
	return d
}

// hash is FNV-1a over the key.
func hash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
