package hdcirc

import (
	"fmt"
	"testing"
)

func TestFacadeDistanceBoundedAndNearestPruned(t *testing.T) {
	src := NewStream(4)
	a := RandomVector(1000, src)
	b := RandomVector(1000, src)
	want := a.HammingDistance(b)
	if hd, within := DistanceBounded(a, b, 1000); !within || hd != want {
		t.Fatalf("DistanceBounded = (%d,%v), want (%d,true)", hd, within, want)
	}
	if _, within := DistanceBounded(a, b, want-1); within {
		t.Fatal("DistanceBounded claimed within below the true distance")
	}
	vs := []*Vector{b, a.Clone()}
	if idx, hd := NearestPruned(a, vs, 1001); idx != 1 || hd != 0 {
		t.Fatalf("NearestPruned = (%d,%d), want (1,0)", idx, hd)
	}
	if idx, hd := NearestPruned(a, vs[:1], want/2); idx != -1 || hd != want/2 {
		t.Fatalf("NearestPruned under bound = (%d,%d), want (-1,%d)", idx, hd, want/2)
	}
}

func TestFacadeAssocIndexExactMode(t *testing.T) {
	const d, n = 512, 300
	src := NewStream(9)
	vs := make([]*Vector, n)
	for i := range vs {
		vs[i] = RandomVector(d, src)
	}
	cfg := DefaultIndexConfig()
	cfg.MinSize = n
	cfg.Candidates = n // exact mode
	ix := NewAssocIndex(vs, cfg)
	if ix.Indexed() != n {
		t.Fatalf("index covers %d of %d vectors", ix.Indexed(), n)
	}
	for i := 0; i < 40; i++ {
		q := RandomVector(d, src)
		wi, wh := Nearest(q, vs)
		if gi, gh := ix.Nearest(q); gi != wi || gh != wh {
			t.Fatalf("query %d: index (%d,%d), linear (%d,%d)", i, gi, gh, wi, wh)
		}
	}
}

func TestFacadeNewIndexedItemMemory(t *testing.T) {
	const d, n = 512, 400
	cfg := DefaultIndexConfig()
	cfg.MinSize = 100
	cfg.Candidates = 1 << 20 // exact
	im := NewIndexedItemMemory(d, 7, cfg)
	plain := NewItemMemory(d, 7)
	for i := 0; i < n; i++ {
		sym := fmt.Sprintf("s/%d", i)
		im.Get(sym)
		plain.Get(sym)
	}
	src := NewStream(11)
	for i := 0; i < 40; i++ {
		q := RandomVector(d, src)
		ws, wsim, _ := plain.Lookup(q)
		gs, gsim, _ := im.Lookup(q)
		if gs != ws || gsim != wsim {
			t.Fatalf("query %d: indexed (%q,%v), plain (%q,%v)", i, gs, gsim, ws, wsim)
		}
	}
}

func TestFacadeServerIndexConfig(t *testing.T) {
	ixCfg := DefaultIndexConfig()
	ixCfg.MinSize = 50
	ixCfg.Candidates = 1 << 20
	srv, err := NewServer(ServerConfig{Dim: 256, Classes: 4, Seed: 3, Index: &ixCfg})
	if err != nil {
		t.Fatal(err)
	}
	var b ServerBatch
	for i := 0; i < 200; i++ {
		b.Items = append(b.Items, fmt.Sprintf("item/%d", i))
	}
	snap, err := srv.ApplyBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	hv, ok := snap.Item("item/42")
	if !ok {
		t.Fatal("interned item missing")
	}
	if sym, _, ok := snap.Lookup(hv); !ok || sym != "item/42" {
		t.Fatalf("indexed snapshot lookup got (%q,%v)", sym, ok)
	}
}
