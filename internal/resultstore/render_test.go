package resultstore

import (
	"context"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/testutil"
)

// resolvedCell serves xor/crc at the given seed through CellResolved,
// resolving and keying it the way the server does.
func resolvedCell(t *testing.T, ctx context.Context, s *Store, seed uint64) (Served, string, error) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Seed = seed
	r, err := Resolve(registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"})
	if err != nil {
		t.Fatal(err)
	}
	key, err := CellKeyCanonical(cfg, r.SchemeJSON, r.BenchJSON, s.Version())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CellResolved(ctx, cfg, r.Scheme, r.Spec, key)
	return c, key, err
}

func loadRendering(t *testing.T, s *Store, key string) (Origin, string) {
	t.Helper()
	c, ok := s.PeekCell(key)
	if !ok {
		t.Fatalf("cell %.8s… missing from both tiers", key)
	}
	return c.Origin, string(c.Rendering.Load())
}

// TestRenderingLivesWithEntry: a rendering attached to a memory-tier
// entry is served with every hit on that entry and is gone once the
// entry is — LRU eviction, DeleteCell, a Fill that replaces it — while
// GC, which only touches the disk tier, leaves entry and rendering
// alone.  Failed results never get a slot.
func TestRenderingLivesWithEntry(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx := context.Background()
	s := openTemp(t, Options{MemoryEntries: 2})

	c, k1, err := resolvedCell(t, ctx, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Origin != OriginComputed || c.Rendering == nil || c.Rendering.Load() != nil {
		t.Fatalf("computed cell: origin %s, slot %p holding %q; want an empty slot", c.Origin, c.Rendering, c.Rendering.Load())
	}
	c.Rendering.Store([]byte("r1"))
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || r != "r1" {
		t.Fatalf("memory hit: origin %s rendering %q, want memory r1", origin, r)
	}
	again, _, err := resolvedCell(t, ctx, s, 1)
	if err != nil || again.Rendering != c.Rendering {
		t.Fatalf("second CellResolved: slot %p err %v, want the entry's slot %p", again.Rendering, err, c.Rendering)
	}

	// LRU eviction: the disk hit promotes a fresh entry.
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := resolvedCell(t, ctx, s, seed); err != nil {
			t.Fatal(err)
		}
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginDisk || r != "" {
		t.Fatalf("after eviction: origin %s rendering %q, want a disk hit without one", origin, r)
	}
	c, _ = s.PeekCell(k1)
	c.Rendering.Store([]byte("r1-disk"))
	if _, r := loadRendering(t, s, k1); r != "r1-disk" {
		t.Fatalf("promoted entry lost its rendering: %q", r)
	}

	// DeleteCell drops the entry; the recomputed one starts empty.
	if removed, err := s.DeleteCell(k1); err != nil || !removed {
		t.Fatalf("DeleteCell: removed %v err %v", removed, err)
	}
	c, _, err = resolvedCell(t, ctx, s, 1)
	if err != nil || c.Origin != OriginComputed || c.Rendering.Load() != nil {
		t.Fatalf("after delete: origin %s rendering %q err %v, want computed without one", c.Origin, c.Rendering.Load(), err)
	}
	c.Rendering.Store([]byte("r1-recomputed"))

	// GC empties the disk tier but keeps memory entries, renderings
	// included; once the entry is evicted too, the cell is recomputed
	// into an empty slot.
	if rep := s.GC(1); rep.Evicted == 0 {
		t.Fatalf("GC evicted nothing: %+v", rep)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || r != "r1-recomputed" {
		t.Fatalf("after GC: origin %s rendering %q, want the unchanged memory entry", origin, r)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := resolvedCell(t, ctx, s, seed); err != nil {
			t.Fatal(err)
		}
	}
	c, _, err = resolvedCell(t, ctx, s, 1)
	if err != nil || c.Origin != OriginComputed || c.Rendering.Load() != nil {
		t.Fatalf("after GC and eviction: origin %s rendering %q err %v, want computed without one", c.Origin, c.Rendering.Load(), err)
	}
	c.Rendering.Store([]byte("r1-before-fill"))

	// A Fill of the same key replaces the entry, rendering and all.
	if err := s.Fill(k1, tinyConfig(), c.Result); err != nil {
		t.Fatal(err)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || r != "" {
		t.Fatalf("after Fill: origin %s rendering %q, want a memory entry without one", origin, r)
	}

	// A failed result has no slot, and a nil slot ignores stores.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	c, k9, err := resolvedCell(t, cancelled, s, 9)
	if err == nil || c.Result.Err == nil || c.Rendering != nil {
		t.Fatalf("cancelled cell: err %v, slot %p; want a failure without a slot", err, c.Rendering)
	}
	c.Rendering.Store([]byte("ignored"))
	if c.Rendering.Load() != nil {
		t.Fatal("a nil slot returned bytes")
	}
	if _, ok := s.PeekCell(k9); ok {
		t.Fatal("a failed result was cached")
	}
}

// TestRenderingNeedsMemoryTier: without a memory tier nothing holds a
// rendering, so hits carry no slot.
func TestRenderingNeedsMemoryTier(t *testing.T) {
	s := openTemp(t, Options{MemoryEntries: -1})
	for i, want := range []Origin{OriginComputed, OriginDisk} {
		c, _, err := resolvedCell(t, context.Background(), s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Origin != want || c.Rendering != nil {
			t.Fatalf("request %d: origin %s slot %p, want %s without a slot", i, c.Origin, c.Rendering, want)
		}
	}
}

// TestCellResolvedMatchesCellDecl: the resolved entry point addresses
// the same cell and returns the same result as CellDecl.
func TestCellResolvedMatchesCellDecl(t *testing.T) {
	ctx := context.Background()
	s := openTemp(t, Options{})
	c, key, err := resolvedCell(t, ctx, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Seed = 5
	want, err := CellKeyDecl(cfg, registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"}, s.Version())
	if err != nil || key != want {
		t.Fatalf("CellKeyCanonical = %s, CellKeyDecl = %s (err %v)", key, want, err)
	}
	res, origin, err := s.CellDecl(ctx, cfg, registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"})
	if err != nil || origin != OriginMemory {
		t.Fatalf("CellDecl after CellResolved: origin %s err %v, want a memory hit", origin, err)
	}
	direct, err := core.RunOne(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if res.MissRate != c.Result.MissRate || res.MissRate != direct.MissRate {
		t.Fatalf("miss rates differ: resolved %v, decl %v, direct %v", c.Result.MissRate, res.MissRate, direct.MissRate)
	}
}
