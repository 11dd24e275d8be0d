package cluster

import (
	"fmt"

	"hdcirc/internal/hashring"
)

// Topology is the deterministic key→shard routing function derived from a
// manifest: a hashring.Shards built from the manifest's pinned geometry,
// which routes the same "class/<id>" and "item/<symbol>" keys the
// in-process serving ring routes (hashring.ClassKey, hashring.ItemKey).
// Construction is the only mutation; afterwards every method is a pure
// read, safe from any number of goroutines.
type Topology struct {
	*hashring.Shards
	man *Manifest
}

// NewTopology normalizes and validates the manifest, then builds the
// routing ring: members shard/0..shard/N-1 added in order. Because the
// hashring's placement is deterministic in (geometry, seed, insertion
// order), every participant handed the same manifest derives the same
// assignment — the property the golden-assignment tests pin.
func NewTopology(m *Manifest) (*Topology, error) {
	if m == nil {
		return nil, fmt.Errorf("cluster: nil manifest")
	}
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	shards, err := hashring.NewShards(m.RingPositions, m.RingDim, m.RingSeed, len(m.Shards))
	if err != nil {
		return nil, fmt.Errorf("cluster: building routing ring: %w", err)
	}
	return &Topology{Shards: shards, man: m}, nil
}

// Manifest returns the manifest the topology was built from. Callers must
// treat it as immutable.
func (t *Topology) Manifest() *Manifest { return t.man }

// Endpoints returns shard i's endpoint set.
func (t *Topology) Endpoints(i int) ShardEndpoints { return t.man.Shards[i] }

// ClassesOwnedBy returns the ascending global class ids (of a model with
// `classes` total) owned by shard i — the selection a scatter-gather
// client applies to each shard's score vector so foreign-class rows
// (untrained tie-vector prototypes on that shard) can never leak into a
// merge.
func (t *Topology) ClassesOwnedBy(shard, classes int) []int {
	var out []int
	for c := 0; c < classes; c++ {
		if t.ShardForClass(c) == shard {
			out = append(out, c)
		}
	}
	return out
}

// Node is one server's view of the tier: the shared topology plus its own
// shard index, the pair ownership enforcement needs.
type Node struct {
	*Topology
	Shard int
}

// NewNode builds a Node after checking the shard index is in range.
func NewNode(m *Manifest, shard int) (*Node, error) {
	t, err := NewTopology(m)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= t.NumShards() {
		return nil, fmt.Errorf("cluster: shard index %d out of range for %d shards", shard, t.NumShards())
	}
	return &Node{Topology: t, Shard: shard}, nil
}

// OwnsClass reports whether this node's shard owns the class.
func (n *Node) OwnsClass(class int) bool { return n.ShardForClass(class) == n.Shard }

// OwnsItem reports whether this node's shard owns the symbol.
func (n *Node) OwnsItem(symbol string) bool { return n.ShardForItem(symbol) == n.Shard }
