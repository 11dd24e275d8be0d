package bitvec

// Fuzz harnesses pinning the threshold-pruned kernels (pruned.go), the
// basis walk (BasisWalk) and the bundling kernel (majorityCSA) against the
// per-bit references in reference.go. Dimensions are derived from the
// fuzzed inputs so non-64-multiple word tails are exercised constantly;
// the seed corpora (testdata/fuzz/ for the pruned kernels, f.Add for the
// walk and the bundling kernel) check in the word-boundary cases (d = 1,
// 63..65, 127..129) plus representative bounds, chains and operand counts.

import "testing"

// fuzzDim maps a fuzzed uint16 onto [1, 1025], hitting every word-tail
// residue class.
func fuzzDim(raw uint16) int { return int(raw)%1025 + 1 }

// vecFromBytes builds a d-bit vector by cycling the given bytes (an empty
// slice yields the zero vector), offset so distinct offsets give distinct
// vectors from one pool.
func vecFromBytes(d int, data []byte, offset int) *Vector {
	v := New(d)
	if len(data) == 0 {
		return v
	}
	for i := 0; i < d; i++ {
		byteIdx := (offset + i/8) % len(data)
		if data[byteIdx]>>(uint(i)&7)&1 == 1 {
			v.setBit(i)
		}
	}
	return v
}

func FuzzDistanceBounded(f *testing.F) {
	f.Add([]byte{0xff}, []byte{0x00}, uint16(0), 0)                      // d=1, tight bound
	f.Add([]byte{0xaa, 0x55}, []byte{0x55, 0xaa}, uint16(62), 31)        // d=63
	f.Add([]byte("seed"), []byte("corn"), uint16(63), 64)                // d=64
	f.Add([]byte{0x01}, []byte{0x80}, uint16(64), -1)                    // d=65, negative bound
	f.Add([]byte{0xf0, 0x0f, 0x33}, []byte{}, uint16(126), 127)          // d=127 vs zero vector
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{5, 4, 3, 2, 1}, uint16(128), 60) // d=129
	f.Fuzz(func(t *testing.T, ab, bb []byte, dRaw uint16, bound int) {
		d := fuzzDim(dRaw)
		a := vecFromBytes(d, ab, 0)
		b := vecFromBytes(d, bb, 0)
		want := referenceHammingDistance(a, b)
		hd, within := DistanceBounded(a, b, bound)
		if within != (want <= bound) {
			t.Fatalf("d=%d bound=%d: within=%v but reference distance %d", d, bound, within, want)
		}
		if within && hd != want {
			t.Fatalf("d=%d bound=%d: hd=%d, reference %d", d, bound, hd, want)
		}
		if !within && hd <= bound {
			t.Fatalf("d=%d bound=%d: abandoned at %d, not past the bound", d, bound, hd)
		}
	})
}

func FuzzNearestPruned(f *testing.F) {
	f.Add([]byte{0xde, 0xad}, []byte{0xbe, 0xef, 0x01, 0x42}, uint16(62), uint8(5), 20) // d=63
	f.Add([]byte("query"), []byte("candidates!"), uint16(63), uint8(1), 64)             // d=64
	f.Add([]byte{0x00}, []byte{0xff, 0x00, 0xf0}, uint16(64), uint8(9), 0)              // d=65, bound 0
	f.Add([]byte{0x11, 0x22, 0x33}, []byte{}, uint16(128), uint8(3), 1000)              // d=129, zero candidates pool
	f.Add([]byte{7}, []byte{7, 7, 9}, uint16(999), uint8(16), 500)                      // large odd d, identical-ish
	f.Fuzz(func(t *testing.T, qb, pool []byte, dRaw uint16, nRaw uint8, bound int) {
		d := fuzzDim(dRaw)
		q := vecFromBytes(d, qb, 0)
		n := int(nRaw)%16 + 1
		vs := make([]*Vector, n)
		for i := range vs {
			vs[i] = vecFromBytes(d, pool, i)
		}
		gi, gh := NearestPruned(q, vs, bound)
		wi, wh := referenceNearestPruned(q, vs, bound)
		if gi != wi || gh != wh {
			t.Fatalf("d=%d n=%d bound=%d: got (%d,%d), reference (%d,%d)", d, n, bound, gi, gh, wi, wh)
		}
		// Cross-kernel agreement: with bound d+1 the pruned scan must equal
		// the plain fused kernel.
		ni, nh := Nearest(q, vs)
		pi, ph := NearestPruned(q, vs, d+1)
		if ni != pi || nh != ph {
			t.Fatalf("d=%d n=%d: Nearest (%d,%d) != NearestPruned full bound (%d,%d)", d, n, ni, nh, pi, ph)
		}
	})
}

// FuzzMajority drives the bundling kernel with 1–130 operands under both
// tie policies (mode%2: 0 coins from a seeded source, 1 a tie vector), with
// and without per-operand keys. Every third operand is the complement of
// the one before it, so even operand counts tie often. The reference binds
// the keys explicitly, counts per bit and thresholds per bit.
func FuzzMajority(f *testing.F) {
	for _, d := range []uint16{1, 63, 64, 65, 127, 129} {
		for _, k := range []uint8{1, 2, 64, 65} {
			for mode := uint8(0); mode < 4; mode++ {
				for _, keyed := range []bool{false, true} {
					f.Add([]byte{0x5a, byte(d), k, 0xc3, mode}, d-1, k-1, mode, keyed, uint64(d)*131+uint64(k))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, pool []byte, dRaw uint16, kRaw, mode uint8, keyed bool, seed uint64) {
		d := fuzzDim(dRaw)
		k := int(kRaw)%130 + 1
		vs := make([]*Vector, k)
		for i := range vs {
			if i%3 == 2 {
				vs[i] = vs[i-1].Not()
			} else {
				vs[i] = vecFromBytes(d, pool, i)
			}
		}
		var keys []*Vector
		bound := vs
		if keyed {
			keys = make([]*Vector, k)
			bound = make([]*Vector, k)
			for i := range keys {
				keys[i] = vecFromBytes(d, pool, k+i).Not()
				bound[i] = keys[i].Xor(vs[i])
			}
		}
		got := New(d)
		acc := NewAccumulator(d)
		for _, b := range bound {
			acc.referenceAddWeighted(b, 1)
		}
		var want *Vector
		if mode%2 == 0 {
			majorityCSA(got, vs, keys, newTestSource(int64(seed)), nil)
			want = acc.referenceThreshold(newTestSource(int64(seed)))
			if !keyed && !Majority(vs, newTestSource(int64(seed))).Equal(want) {
				t.Fatalf("d=%d k=%d: Majority diverges from the reference", d, k)
			}
		} else {
			tv := vecFromBytes(d, pool, 2*k+1)
			majorityCSA(got, vs, keys, nil, tv)
			want = acc.referenceThresholdTieVector(tv)
			if !MajorityTieVector(vs, keys, tv).Equal(want) {
				t.Fatalf("d=%d k=%d keyed=%v: MajorityTieVector diverges from the reference", d, k, keyed)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("d=%d k=%d mode=%d keyed=%v: kernel diverges from the reference", d, k, mode%2, keyed)
		}
	})
}

// FuzzBasisWalk builds an ordered chain of 1–40 vectors from the fuzzed
// bytes and checks the walk's argmin and whole distance profile against
// the per-bit reference distance, for a plain and a bound query. Each step
// is chosen by one byte of ops:
//
//   - level-like: flip a sparse pattern (about one bit in eight);
//   - flip back: replay an earlier step's transition, the way a circular
//     set's second phase undoes its first, or return to an earlier vector;
//   - random-like: a fresh vector, which changes almost every word.
//
// Returning to earlier vectors makes exact ties common at small d.
func FuzzBasisWalk(f *testing.F) {
	for _, d := range []uint16{1, 63, 64, 65, 127, 129, 640} {
		f.Add([]byte{0x5a, byte(d), 0xc3, 0x0f}, []byte{0, 0, 1, 2, 0, 1}, uint8(d%37), d-1)
		f.Add([]byte("circular"), []byte{0, 0, 0, 1, 1, 1}, uint8(6), d-1)
		f.Add([]byte{0xff, 0x00}, []byte{2, 2, 2}, uint8(9), d-1)
	}
	f.Add([]byte{}, []byte{}, uint8(0), uint16(0)) // m = 1, zero vectors
	f.Fuzz(func(t *testing.T, pool, ops []byte, mRaw uint8, dRaw uint16) {
		d := fuzzDim(dRaw)
		m := int(mRaw)%40 + 1
		vs := []*Vector{vecFromBytes(d, pool, 0)}
		var trans []*Vector
		for k := 1; k < m; k++ {
			op := byte(k)
			if len(ops) > 0 {
				op = ops[k%len(ops)]
			}
			prev := vs[k-1]
			var next *Vector
			switch op % 3 {
			case 0:
				sparse := vecFromBytes(d, pool, 3*k)
				for i := 1; i < 3; i++ {
					w := vecFromBytes(d, pool, 3*k+i)
					for j := range sparse.words {
						sparse.words[j] &= w.words[j]
					}
				}
				next = prev.Xor(sparse)
			case 1:
				if len(trans) > 0 && op&4 == 0 {
					next = prev.Xor(trans[int(op>>3)%len(trans)])
				} else {
					next = vs[int(op>>3)%k].Clone()
				}
			default:
				next = vecFromBytes(d, pool, 5*k+1).Not()
			}
			trans = append(trans, prev.Xor(next))
			vs = append(vs, next)
		}
		bw := NewBasisWalk(vs)
		x := vecFromBytes(d, pool, 7)
		y := vecFromBytes(d, pool, 11).Not()
		xy := x.Xor(y)
		for _, bound := range []bool{false, true} {
			dist := make([]int, m)
			var idx, hd int
			if bound {
				idx, hd = bw.NearestXor(x, y, dist)
			} else {
				idx, hd = bw.Nearest(x, dist)
			}
			q := x
			if bound {
				q = xy
			}
			wantIdx, wantHD := referenceNearestPruned(q, vs, d+1)
			if idx != wantIdx || hd != wantHD {
				t.Fatalf("d=%d m=%d bound=%v: walk (%d,%d), reference (%d,%d)", d, m, bound, idx, hd, wantIdx, wantHD)
			}
			for k, v := range vs {
				if want := referenceHammingDistance(q, v); dist[k] != want {
					t.Fatalf("d=%d m=%d bound=%v: dist[%d] = %d, reference %d", d, m, bound, k, dist[k], want)
				}
			}
		}
	})
}
