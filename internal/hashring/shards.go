package hashring

import (
	"fmt"
	"strconv"
)

// Routing keys of a sharded tier. Classifier classes route by
// "class/<id>" and item-memory symbols by "item/<symbol>"; shard i is the
// ring member "shard/<i>". The in-process serving ring (internal/serve)
// and the cluster manifest's ring (internal/cluster) route the same keys,
// each over a Shards of its own geometry.

// ClassKey returns the routing key for a global class id.
func ClassKey(class int) string { return "class/" + strconv.Itoa(class) }

// ItemKey returns the routing key for an item-memory symbol.
func ItemKey(symbol string) string { return "item/" + symbol }

// ShardMember returns the ring member name of shard i.
func ShardMember(i int) string { return "shard/" + strconv.Itoa(i) }

// Shards is n shards on a ring: members shard/0..shard/n-1 added in order,
// and every key owned by the shard whose member serves it. Placement is
// deterministic in (positions, dimension, seed, n), so every participant
// built from the same values routes every key alike. Construction is the
// only mutation; afterwards every method is a pure read, safe from any
// number of goroutines.
type Shards struct {
	ring  *Ring
	index map[string]int // member name → shard
}

// NewShards builds a ring of the given geometry and places n ≥ 1 shards
// on it. It returns an error for a bad geometry or when the ring has
// fewer positions than shards.
func NewShards(positions, d int, seed uint64, n int) (*Shards, error) {
	if n < 1 {
		return nil, fmt.Errorf("hashring: need at least one shard, got %d", n)
	}
	ring, err := New(positions, d, seed)
	if err != nil {
		return nil, err
	}
	s := &Shards{ring: ring, index: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		name := ShardMember(i)
		if _, err := ring.Add(name); err != nil {
			return nil, fmt.Errorf("hashring: placing %s: %w", name, err)
		}
		s.index[name] = i
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Shards) NumShards() int { return len(s.index) }

// ShardForKey returns the shard that owns an arbitrary routing key.
func (s *Shards) ShardForKey(key string) int {
	member, _ := s.ring.Lookup(key)
	return s.index[member]
}

// ShardForClass returns the shard that owns a global class id.
func (s *Shards) ShardForClass(class int) int { return s.ShardForKey(ClassKey(class)) }

// ShardForItem returns the shard that owns an item-memory symbol.
func (s *Shards) ShardForItem(symbol string) int { return s.ShardForKey(ItemKey(symbol)) }

// Route reports the shard that owns key, with its ring member name and the
// ring slot the key hashes to — the HD-hashing lookup as a service.
func (s *Shards) Route(key string) (shard int, member string, slot int) {
	member, _ = s.ring.Lookup(key)
	return s.index[member], member, s.ring.KeySlot(key)
}
