package embed

import (
	"fmt"
	"sync"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// fillItems interns n symbols and returns them in creation order.
func fillItems(im *ItemMemory, n int) []string {
	syms := make([]string, n)
	for i := range syms {
		syms[i] = fmt.Sprintf("item/%d", i)
		im.Get(syms[i])
	}
	return syms
}

func flipSome(v *bitvec.Vector, rho float64, src *rng.Stream) *bitvec.Vector {
	out := v.Clone()
	for i := 0; i < v.Dim(); i++ {
		if src.Float64() < rho {
			out.FlipBit(i)
		}
	}
	return out
}

func TestIndexedLookupMatchesExactInExactMode(t *testing.T) {
	const d, n = 1024, 300
	exact := NewItemMemory(d, 9)
	indexed := NewItemMemory(d, 9)
	// Exact mode: candidates cover everything, tiny MinSize so the index
	// actually engages at this n.
	indexed.SetIndexConfig(index.Config{MinSize: 10, Candidates: n + 50})
	fillItems(exact, n)
	fillItems(indexed, n)
	src := rng.Sub(31, "exact-mode")
	for i := 0; i < 60; i++ {
		var q *bitvec.Vector
		if i%2 == 0 {
			q = bitvec.Random(d, src)
		} else {
			q = flipSome(exact.Get(fmt.Sprintf("item/%d", i%n)), 0.35, src)
		}
		ws, wsim, _ := exact.Lookup(q)
		gs, gsim, _ := indexed.Lookup(q)
		if gs != ws || gsim != wsim {
			t.Fatalf("query %d: indexed (%q,%v), exact (%q,%v)", i, gs, gsim, ws, wsim)
		}
	}
}

func TestIndexedLookupRecallOnNoisyProbes(t *testing.T) {
	const d, n = 2048, 3000
	im := NewItemMemory(d, 4)
	im.SetIndexConfig(index.Config{MinSize: 1000})
	syms := fillItems(im, n)
	src := rng.Sub(8, "recall")
	hits := 0
	const queries = 200
	for i := 0; i < queries; i++ {
		target := syms[(i*37)%n]
		q := flipSome(im.Get(target), 0.3, src)
		got, _, ok := im.Lookup(q)
		if !ok {
			t.Fatal("lookup failed on non-empty memory")
		}
		if got == target {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.99 {
		t.Fatalf("indexed recall %.4f below 0.99 (%d/%d)", recall, hits, queries)
	}
}

func TestIndexedLookupTailScanAfterGets(t *testing.T) {
	// Gets after an index build land in the exact-scanned tail; a probe of
	// a tail symbol must still resolve (and similarity must be exact).
	const d = 512
	im := NewItemMemory(d, 6)
	im.SetIndexConfig(index.Config{MinSize: 100, Candidates: 1 << 20}) // exact mode
	fillItems(im, 150)
	q0 := flipSome(im.Get("item/120"), 0.2, rng.Sub(3, "tail0"))
	if got, _, _ := im.Lookup(q0); got != "item/120" {
		t.Fatalf("pre-tail lookup got %q", got)
	}
	// Intern a handful more (fewer than the rebuild slack of 64): these are
	// served by the exact tail scan against the stale index.
	late := im.Get("late/symbol")
	q := flipSome(late, 0.2, rng.Sub(3, "tail"))
	got, sim, ok := im.Lookup(q)
	if !ok || got != "late/symbol" {
		t.Fatalf("tail lookup got (%q, %v, %v)", got, sim, ok)
	}
	if want := 1 - q.Distance(late); sim != want {
		t.Fatalf("tail similarity %v, want exact %v", sim, want)
	}
}

func TestIndexedLookupRebuildsAfterManyGets(t *testing.T) {
	const d = 256
	im := NewItemMemory(d, 2)
	im.SetIndexConfig(index.Config{MinSize: 50, Candidates: 1 << 20})
	fillItems(im, 60)
	im.Lookup(bitvec.Random(d, rng.Sub(1, "warm"))) // builds index over 60
	if im.set.Load().Indexed() != 60 {
		t.Fatalf("index covers %d, want 60", im.set.Load().Indexed())
	}
	// Exceed the rebuild slack (64 for small prefixes).
	for i := 0; i < 70; i++ {
		im.Get(fmt.Sprintf("extra/%d", i))
	}
	probe := flipSome(im.Get("extra/42"), 0.15, rng.Sub(4, "rebuild"))
	got, _, _ := im.Lookup(probe)
	if got != "extra/42" {
		t.Fatalf("post-rebuild lookup got %q", got)
	}
	if im.set.Load().Indexed() != 130 {
		t.Fatalf("index covers %d after rebuild, want 130", im.set.Load().Indexed())
	}
}

func TestDisabledIndexNeverBuilds(t *testing.T) {
	const d = 128
	im := NewItemMemory(d, 5)
	im.SetIndexConfig(index.Config{Disabled: true, MinSize: 1})
	fillItems(im, 100)
	im.Lookup(bitvec.Random(d, rng.Sub(7, "disabled")))
	if im.set.Load().Indexed() != 0 {
		t.Fatal("disabled config built an index")
	}
}

func TestConcurrentIndexedLookups(t *testing.T) {
	// Many goroutines racing on first-Lookup index construction and on
	// lookups afterwards; run under -race in CI.
	const d, n = 512, 400
	im := NewItemMemory(d, 11)
	im.SetIndexConfig(index.Config{MinSize: 100})
	syms := fillItems(im, n)
	queries := make([]*bitvec.Vector, 64)
	src := rng.Sub(19, "conc")
	for i := range queries {
		queries[i] = flipSome(im.Get(syms[i%n]), 0.25, src)
	}
	// A twin that has never been searched: its goroutines race on the
	// first Lookup's Set construction.
	cold := NewItemMemory(d, 11)
	cold.SetIndexConfig(index.Config{MinSize: 100})
	fillItems(cold, n)
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i], _, _ = im.Lookup(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(mem *ItemMemory) {
			defer wg.Done()
			for i, q := range queries {
				if got, _, _ := mem.Lookup(q); got != want[i] {
					t.Errorf("concurrent lookup %d got %q, want %q", i, got, want[i])
				}
			}
		}([]*ItemMemory{im, cold}[g%2])
	}
	wg.Wait()
}
