package serve

import (
	"sort"

	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
)

// shardView is one shard's frozen contribution to a snapshot: finalized
// class prototypes (in ascending global-class order) and the item-memory
// generation, each an index.Set that decides how it is searched, so the
// read plane stays lock-free. The prototype Set is the shard classifier's
// own. Everything is immutable once published.
type shardView struct {
	classes []int      // global class ids, ascending
	protos  *index.Set // finalized prototypes, parallel to classes; nil when the shard owns no classes
	syms    []string   // item symbols in creation order
	items   *index.Set // item vectors, parallel to syms
}

// Snapshot is an immutable, versioned, finalized view of every model the
// server hosts. All methods are pure reads, safe from any number of
// goroutines, and mutually consistent: everything observed through one
// snapshot reflects exactly the write batches up to its version.
type Snapshot struct {
	version uint64
	dim     int
	classes int
	shardOf []int // global class id → shard (shared, fixed at server birth)
	shards  []shardView
	samples uint64
	items   int
}

// Version returns the snapshot's publication number; version 0 is the
// empty model published by NewServer.
func (s *Snapshot) Version() uint64 { return s.version }

// Dim returns the hypervector dimension.
func (s *Snapshot) Dim() int { return s.dim }

// Classes returns the number of classifier classes.
func (s *Snapshot) Classes() int { return s.classes }

// Samples returns the cumulative number of classifier training samples.
func (s *Snapshot) Samples() uint64 { return s.samples }

// NumItems returns the number of interned item symbols.
func (s *Snapshot) NumItems() int { return s.items }

// Predict returns the class whose prototype is most similar to the query
// and the normalized distance. Each shard searches its own prototype Set,
// and across shards, exact ties resolve to the lowest global class id.
// Without an engaged index (or with it in exact mode) the result is
// bit-identical to an unsharded classifier scanning classes 0..k-1 in
// order.
func (s *Snapshot) Predict(q *bitvec.Vector) (class int, distance float64) {
	bestClass, bestHD := -1, s.dim+1
	for i := range s.shards {
		v := &s.shards[i]
		if v.protos == nil {
			continue
		}
		idx, hd := v.protos.Nearest(q)
		c := v.classes[idx]
		if hd < bestHD || (hd == bestHD && c < bestClass) {
			bestClass, bestHD = c, hd
		}
	}
	return bestClass, float64(bestHD) / float64(s.dim)
}

// PredictBatch classifies every query against this one snapshot across the
// pool, bit-identical to sequential Predict calls.
func (s *Snapshot) PredictBatch(p *batch.Pool, qs []*bitvec.Vector) (classes []int, distances []float64) {
	classes = make([]int, len(qs))
	distances = make([]float64, len(qs))
	p.ForEach(len(qs), func(i int) {
		classes[i], distances[i] = s.Predict(qs[i])
	})
	return classes, distances
}

// Scores returns the query's similarity to every class prototype, indexed
// by global class id.
func (s *Snapshot) Scores(q *bitvec.Vector) []float64 {
	out := make([]float64, s.classes)
	for i := range s.shards {
		v := &s.shards[i]
		if v.protos == nil {
			continue
		}
		hds := bitvec.DistanceMany(q, v.protos.Vectors(), make([]int, v.protos.Len()))
		for l, hd := range hds {
			out[v.classes[l]] = 1 - float64(hd)/float64(s.dim)
		}
	}
	return out
}

// RawScores returns the query's raw Hamming distance to every class
// prototype, indexed by global class id. This is the scatter half of
// cross-process scatter-gather predict: integer distances merge exactly
// (the float similarities Scores returns would round), so a cluster
// client can fan this out to every shard, keep each shard's owned-class
// rows, and reproduce the unsharded Predict tie-break bit for bit.
func (s *Snapshot) RawScores(q *bitvec.Vector) []int {
	out := make([]int, s.classes)
	for i := range s.shards {
		v := &s.shards[i]
		if v.protos == nil {
			continue
		}
		hds := bitvec.DistanceMany(q, v.protos.Vectors(), make([]int, v.protos.Len()))
		for l, hd := range hds {
			out[v.classes[l]] = hd
		}
	}
	return out
}

// ClassVector returns the finalized prototype of a global class id. The
// vector is shared and immutable.
func (s *Snapshot) ClassVector(class int) *bitvec.Vector {
	if class < 0 || class >= s.classes {
		return nil
	}
	v := &s.shards[s.shardOf[class]]
	l := sort.SearchInts(v.classes, class)
	return v.protos.Vectors()[l]
}

// Lookup runs item-memory cleanup: the interned symbol whose vector is
// most similar to q, with its similarity. Each shard searches its item
// Set; within a shard exact ties resolve to the earliest-created symbol,
// across shards to the lexicographically smallest one. ok is false when
// no items are interned.
func (s *Snapshot) Lookup(q *bitvec.Vector) (symbol string, sim float64, ok bool) {
	bestHD := s.dim + 1
	for i := range s.shards {
		v := &s.shards[i]
		if v.items.Len() == 0 {
			continue
		}
		idx, hd := v.items.Nearest(q)
		if hd < bestHD || (hd == bestHD && v.syms[idx] < symbol) {
			symbol, bestHD, ok = v.syms[idx], hd, true
		}
	}
	if !ok {
		return "", -1, false
	}
	return symbol, 1 - float64(bestHD)/float64(s.dim), true
}

// Item returns the vector interned for a symbol, or ok=false when the
// symbol is not a member. The scan is linear in the shard's item count.
func (s *Snapshot) Item(symbol string) (hv *bitvec.Vector, ok bool) {
	for i := range s.shards {
		v := &s.shards[i]
		for j, sym := range v.syms {
			if sym == symbol {
				return v.items.Vectors()[j], true
			}
		}
	}
	return nil, false
}
