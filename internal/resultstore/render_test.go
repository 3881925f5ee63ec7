package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
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

	// LRU eviction: the disk hit promotes a fresh entry holding the
	// manifest's rendering.
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := resolvedCell(t, ctx, s, seed); err != nil {
			t.Fatal(err)
		}
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginDisk || r != string(docRendering(t, c.Result)) {
		t.Fatalf("after eviction: origin %s rendering %q, want a disk hit with the manifest's", origin, r)
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

// TestRenderingNeedsMemoryTier: without a memory tier no entry keeps a
// rendering, so a computed cell carries no slot, and each disk hit
// carries a slot of its own holding its manifest's rendering.
func TestRenderingNeedsMemoryTier(t *testing.T) {
	s := openTemp(t, Options{MemoryEntries: -1})
	c, _, err := resolvedCell(t, context.Background(), s, 1)
	if err != nil || c.Origin != OriginComputed || c.Rendering != nil {
		t.Fatalf("first request: origin %s slot %p err %v, want computed without a slot", c.Origin, c.Rendering, err)
	}
	want := docRendering(t, c.Result)
	var slots []*Rendering
	for i := range 2 {
		c, _, err := resolvedCell(t, context.Background(), s, 1)
		if err != nil || c.Origin != OriginDisk || !bytes.Equal(c.Rendering.Load(), want) {
			t.Fatalf("disk hit %d: origin %s rendering %q err %v, want the manifest's", i, c.Origin, c.Rendering.Load(), err)
		}
		slots = append(slots, c.Rendering)
	}
	if slots[0] == slots[1] {
		t.Fatal("two disk hits shared one slot")
	}
}

// docRendering is a result's rendering in the format the Rendering doc
// states: the canonical JSON of res without PerSet, indented by
// json.Indent with prefix and indent "  ".
func docRendering(t *testing.T, res core.Result) []byte {
	t.Helper()
	compact, err := report.CanonicalJSON(struct {
		core.Result
		Err    json.RawMessage `json:",omitempty"`
		PerSet json.RawMessage `json:",omitempty"`
	}{Result: res})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := json.Indent(&b, compact, "  ", "  "); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// rewriteManifest replaces the compressed manifest under key with
// edit's output, failing the test unless edit changed it.
func rewriteManifest(t *testing.T, s *Store, key string, edit func([]byte) []byte) {
	t.Helper()
	path := s.manifestPath(key)
	data, err := readMaybeCompressed(path, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	out := edit(bytes.Clone(data))
	if bytes.Equal(out, data) {
		t.Fatal("edit left the manifest as it was")
	}
	zdata, err := deflate(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, zdata, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestOtherLayout: a manifest in another layout than
// encodeManifest's (here compact) is decoded by json.Unmarshal and
// serves the same result, with no rendering.
func TestManifestOtherLayout(t *testing.T) {
	dir := t.TempDir()
	c, key, err := resolvedCell(t, context.Background(), openTemp(t, Options{Dir: dir}), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := openTemp(t, Options{Dir: dir, MemoryEntries: -1})
	rewriteManifest(t, s, key, func(data []byte) []byte {
		var b bytes.Buffer
		if err := json.Compact(&b, data); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	})
	got, ok := s.PeekCell(key)
	if !ok || got.Origin != OriginDisk || got.Rendering != nil {
		t.Fatalf("compact manifest: ok %v origin %s slot %p, want a disk hit without a rendering", ok, got.Origin, got.Rendering)
	}
	if !reflect.DeepEqual(got.Result, c.Result) {
		t.Fatalf("compact manifest served %+v, want %+v", got.Result, c.Result)
	}
}

// TestCorruptPerSetIsMiss: a manifest with a negative or fractional
// per-set count is a miss counted as corrupt, and the deep scrub removes
// it while it keeps a stale-version manifest.
func TestCorruptPerSetIsMiss(t *testing.T) {
	for _, bad := range []string{"-1", "1.5"} {
		t.Run(bad, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			if _, _, err := openTemp(t, Options{Dir: dir, Version: "old"}).Cell(ctx, tinyConfig(), "xor", "crc"); err != nil {
				t.Fatal(err)
			}
			stale, err := CellKeyDecl(tinyConfig(), registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"}, "old")
			if err != nil {
				t.Fatal(err)
			}
			_, key, err := resolvedCell(t, ctx, openTemp(t, Options{Dir: dir}), 1)
			if err != nil {
				t.Fatal(err)
			}
			s := openTemp(t, Options{Dir: dir})
			rewriteManifest(t, s, key, func(data []byte) []byte {
				return bytes.Replace(data, []byte("\"Accesses\": [\n        "), []byte("\"Accesses\": [\n        "+bad+",\n        "), 1)
			})
			if _, ok := s.PeekCell(key); ok {
				t.Fatal("a manifest with a bad per-set count was served")
			}
			if n := s.Counters().CorruptManifests; n != 1 {
				t.Fatalf("corrupt manifests = %d, want 1", n)
			}
			openTemp(t, Options{Dir: dir, DeepScrub: true})
			if fileSize(s.manifestPath(key)) >= 0 {
				t.Error("deep scrub kept the corrupt manifest")
			}
			if fileSize(s.manifestPath(stale)) < 0 {
				t.Error("deep scrub removed the stale-version manifest")
			}
		})
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
