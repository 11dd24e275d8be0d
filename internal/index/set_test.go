package index

import (
	"testing"

	"hdcirc/internal/bitvec"
)

func TestSetBelowMinSizeScansExactly(t *testing.T) {
	vs := randomVecs(300, 512, 31)
	for _, cfg := range []Config{{}, {Disabled: true, MinSize: 1}} {
		s := NewSet(vs, cfg, nil)
		if s.Indexed() != 0 {
			t.Fatalf("%+v: indexed %d of %d vectors", cfg, s.Indexed(), s.Len())
		}
		q := randomVecs(1, 512, 32)[0]
		wi, wh := bitvec.Nearest(q, vs)
		if gi, gh := s.Nearest(q); gi != wi || gh != wh {
			t.Fatalf("%+v: set (%d,%d), linear (%d,%d)", cfg, gi, gh, wi, wh)
		}
	}
}

func TestSetCarriesIndexOverWhileTailIsSmall(t *testing.T) {
	vs := randomVecs(1000, 256, 33)
	cfg := Config{MinSize: 50, Candidates: 1 << 20}
	prev := NewSet(vs[:100], cfg, nil)
	if prev.Indexed() != 100 {
		t.Fatalf("prefix set indexed %d, want 100", prev.Indexed())
	}
	// An index of 100 vectors tolerates a tail of 64.
	if got := NewSet(vs[:164], cfg, prev).Indexed(); got != 100 {
		t.Fatalf("tail of 64: indexed %d, want the carried 100", got)
	}
	if got := NewSet(vs[:165], cfg, prev).Indexed(); got != 165 {
		t.Fatalf("tail of 65: indexed %d, want a rebuild over 165", got)
	}
	// Past 512 vectors the bound is an eighth of the prefix.
	big := NewSet(vs[:800], cfg, nil)
	if got := NewSet(vs[:900], cfg, big).Indexed(); got != 800 {
		t.Fatalf("tail of 100 behind 800: indexed %d, want 800", got)
	}
	if got := NewSet(vs[:901], cfg, big).Indexed(); got != 901 {
		t.Fatalf("tail of 101 behind 800: indexed %d, want 901", got)
	}
	if got := NewSet(vs[:164], Config{Disabled: true}, prev).Indexed(); got != 0 {
		t.Fatalf("disabled config kept %d indexed vectors", got)
	}
}

// fuzzVec builds a d-bit vector by cycling data from the given offset; an
// empty slice gives the zero vector. Short data make equal vectors, so
// distance ties are common.
func fuzzVec(d int, data []byte, offset int) *bitvec.Vector {
	v := bitvec.New(d)
	if len(data) == 0 {
		return v
	}
	for i := 0; i < d; i++ {
		if data[(offset+i/8)%len(data)]>>(uint(i)&7)&1 == 1 {
			v.FlipBit(i)
		}
	}
	return v
}

// FuzzSetNearest pins a Set in exact mode (Candidates >= n, MinSize 1,
// negative RadiusSlack) against the linear scans: the indexed prefix is
// carried over from a Set built on a random prefix, so the prefix/tail
// split, the carry-over rule and the tie rule across the split are all
// exercised.
func FuzzSetNearest(f *testing.F) {
	f.Add([]byte{0xde, 0xad}, []byte{0xbe, 0xef, 0x01, 0x42}, uint16(62), uint8(5), uint8(2), uint16(20)) // d=63
	f.Add([]byte("query"), []byte("candidates!"), uint16(63), uint8(1), uint8(0), uint16(64))             // d=64, n=2
	f.Add([]byte{0x00}, []byte{0xff, 0x00, 0xf0}, uint16(64), uint8(9), uint8(9), uint16(0))              // d=65, no tail
	f.Add([]byte{0x11, 0x22, 0x33}, []byte{}, uint16(128), uint8(3), uint8(1), uint16(1000))              // d=129, all zero
	f.Add([]byte{7}, []byte{7, 7, 9}, uint16(999), uint8(99), uint8(0), uint16(500))                      // long tail: rebuild
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3, 1, 2, 3, 1, 2, 3}, uint16(0), uint8(40), uint8(20), uint16(1)) // d=1, ties everywhere
	f.Fuzz(func(t *testing.T, qb, pool []byte, dRaw uint16, nRaw, prefixRaw uint8, rRaw uint16) {
		d := int(dRaw)%1025 + 1
		n := int(nRaw)%100 + 1
		vs := make([]*bitvec.Vector, n)
		for i := range vs {
			vs[i] = fuzzVec(d, pool, i)
		}
		q := fuzzVec(d, qb, 0)
		cfg := Config{MinSize: 1, Candidates: n, SignatureBits: 64, Seed: uint64(dRaw), RadiusSlack: -1}
		prev := NewSet(vs[:int(prefixRaw)%n+1], cfg, nil)
		s := NewSet(vs, cfg, prev)

		wi, wh := bitvec.Nearest(q, vs)
		if gi, gh := s.Nearest(q); gi != wi || gh != wh {
			t.Fatalf("d=%d n=%d indexed=%d: set (%d,%d), linear (%d,%d)", d, n, s.Indexed(), gi, gh, wi, wh)
		}

		r := int(rRaw)%(d+2) - 1
		var want []int
		for i, v := range vs {
			if q.HammingDistance(v) <= r {
				want = append(want, i)
			}
		}
		got := s.WithinRadius(q, r, nil)
		if len(got) != len(want) {
			t.Fatalf("d=%d n=%d r=%d: %d in radius, exact %d", d, n, r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d n=%d r=%d: result %d is %d, exact %d", d, n, r, i, got[i], want[i])
			}
		}
	})
}
