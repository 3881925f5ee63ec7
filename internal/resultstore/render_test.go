package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
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

func loadRendering(t *testing.T, s *Store, key string) (Origin, []byte) {
	t.Helper()
	c, ok := s.PeekCell(key)
	if !ok {
		t.Fatalf("cell %.8s… missing from both tiers", key)
	}
	return c.Origin, c.Rendering
}

// sameBytes reports whether a and b are the same non-empty bytes in
// memory, not merely equal ones.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestRenderingLivesWithEntry: every insertion into the memory tier
// brings its rendering, equal to the oracle, and every hit on the entry
// serves those same bytes until the entry is gone — by LRU eviction
// (the disk hit promotes an entry holding the manifest's rendering), by
// DeleteCell (the recomputed entry has a new one), by a Fill that
// replaces it — while GC, which only touches the disk tier, leaves entry
// and rendering alone.  Failed results carry no rendering.
func TestRenderingLivesWithEntry(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx := context.Background()
	s := openTemp(t, Options{MemoryEntries: 2})

	c, k1, err := resolvedCell(t, ctx, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := docRendering(t, c.Result)
	if c.Origin != OriginComputed || !bytes.Equal(c.Rendering, want) {
		t.Fatalf("computed cell: origin %s rendering %q, want %q", c.Origin, c.Rendering, want)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || !sameBytes(r, c.Rendering) {
		t.Fatalf("memory hit: origin %s rendering %q, want the computed cell's bytes", origin, r)
	}
	again, _, err := resolvedCell(t, ctx, s, 1)
	if err != nil || !sameBytes(again.Rendering, c.Rendering) {
		t.Fatalf("second CellResolved: rendering %q err %v, want the entry's bytes", again.Rendering, err)
	}

	// LRU eviction: the disk hit promotes a fresh entry holding the
	// manifest's rendering, which the memory hits after it serve.
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := resolvedCell(t, ctx, s, seed); err != nil {
			t.Fatal(err)
		}
	}
	origin, disk := loadRendering(t, s, k1)
	if origin != OriginDisk || !bytes.Equal(disk, want) || sameBytes(disk, c.Rendering) {
		t.Fatalf("after eviction: origin %s rendering %q, want a disk hit with the manifest's own copy", origin, disk)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || !sameBytes(r, disk) {
		t.Fatalf("promoted entry: origin %s rendering %q, want the disk hit's bytes", origin, r)
	}

	// DeleteCell drops the entry; the recomputed one has a new rendering.
	if removed, err := s.DeleteCell(k1); err != nil || !removed {
		t.Fatalf("DeleteCell: removed %v err %v", removed, err)
	}
	c, _, err = resolvedCell(t, ctx, s, 1)
	if err != nil || c.Origin != OriginComputed || !bytes.Equal(c.Rendering, want) || sameBytes(c.Rendering, disk) {
		t.Fatalf("after delete: origin %s rendering %q err %v, want computed with a new rendering", c.Origin, c.Rendering, err)
	}

	// GC empties the disk tier but keeps memory entries, renderings
	// included; once the entry is evicted too, the cell is recomputed.
	if rep := s.GC(1); rep.Evicted == 0 {
		t.Fatalf("GC evicted nothing: %+v", rep)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || !sameBytes(r, c.Rendering) {
		t.Fatalf("after GC: origin %s rendering %q, want the unchanged memory entry", origin, r)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, _, err := resolvedCell(t, ctx, s, seed); err != nil {
			t.Fatal(err)
		}
	}
	c, _, err = resolvedCell(t, ctx, s, 1)
	if err != nil || c.Origin != OriginComputed || !bytes.Equal(c.Rendering, want) {
		t.Fatalf("after GC and eviction: origin %s rendering %q err %v, want computed with the oracle's", c.Origin, c.Rendering, err)
	}

	// A Fill of the same key replaces the entry, rendering and all.
	filled, err := s.FillCell(k1, tinyConfig(), c.Result)
	if err != nil || !bytes.Equal(filled, want) || sameBytes(filled, c.Rendering) {
		t.Fatalf("FillCell: rendering %q err %v, want a new rendering equal to the oracle's", filled, err)
	}
	if origin, r := loadRendering(t, s, k1); origin != OriginMemory || !sameBytes(r, filled) {
		t.Fatalf("after Fill: origin %s rendering %q, want the fill's bytes", origin, r)
	}

	// A failed result has no rendering and is not cached.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	c, k9, err := resolvedCell(t, cancelled, s, 9)
	if err == nil || c.Result.Err == nil || c.Rendering != nil {
		t.Fatalf("cancelled cell: err %v, rendering %q; want a failure without one", err, c.Rendering)
	}
	if _, ok := s.PeekCell(k9); ok {
		t.Fatal("a failed result was cached")
	}
}

// TestRenderingNeedsMemoryTier: without a memory tier no entry keeps a
// rendering, but every served cell still carries one: the computed cell
// the rendering its manifest was built from, and each disk hit a copy
// of its own cut from the manifest it read.
func TestRenderingNeedsMemoryTier(t *testing.T) {
	s := openTemp(t, Options{MemoryEntries: -1})
	c, _, err := resolvedCell(t, context.Background(), s, 1)
	want := docRendering(t, c.Result)
	if err != nil || c.Origin != OriginComputed || !bytes.Equal(c.Rendering, want) {
		t.Fatalf("first request: origin %s rendering %q err %v, want computed with %q", c.Origin, c.Rendering, err, want)
	}
	renderings := [][]byte{c.Rendering}
	for i := range 2 {
		c, _, err := resolvedCell(t, context.Background(), s, 1)
		if err != nil || c.Origin != OriginDisk || !bytes.Equal(c.Rendering, want) {
			t.Fatalf("disk hit %d: origin %s rendering %q err %v, want the manifest's", i, c.Origin, c.Rendering, err)
		}
		renderings = append(renderings, c.Rendering)
	}
	for i := range renderings {
		for j := range i {
			if sameBytes(renderings[i], renderings[j]) {
				t.Fatalf("served cells %d and %d share one rendering", j, i)
			}
		}
	}
}

// TestInsertedRenderings: the cells a computation and a peer fill insert
// carry the oracle's rendering — the leader's computed cell, a waiter's
// inflight cell (the same bytes) and a FillCell — with and without a
// memory tier and with and without a disk tier; with a memory tier the
// next hit serves the inserted bytes.
func TestInsertedRenderings(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx := context.Background()
	for _, entries := range []int{0, -1} {
		for _, withDir := range []bool{true, false} {
			t.Run(fmt.Sprintf("entries=%d/dir=%v", entries, withDir), func(t *testing.T) {
				opts := Options{MemoryEntries: entries}
				if withDir {
					opts.Dir = t.TempDir()
				}
				s, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				hit := func(what, key string, inserted []byte) {
					t.Helper()
					c, ok := s.PeekCell(key)
					switch {
					case entries < 0 && !withDir:
						if ok {
							t.Fatalf("%s: a store without tiers served %s", what, c.Origin)
						}
					case entries < 0:
						if !ok || c.Origin != OriginDisk || !bytes.Equal(c.Rendering, inserted) {
							t.Fatalf("%s: ok %v origin %s rendering %q, want a disk hit with %q", what, ok, c.Origin, c.Rendering, inserted)
						}
					default:
						if !ok || c.Origin != OriginMemory || !sameBytes(c.Rendering, inserted) {
							t.Fatalf("%s: ok %v origin %s rendering %q, want a memory hit on the inserted bytes", what, ok, c.Origin, c.Rendering)
						}
					}
				}

				// A leader holds the flight while a waiter joins it.
				cfg := tinyConfig()
				r, err := Resolve(registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"})
				if err != nil {
					t.Fatal(err)
				}
				key, err := CellKeyCanonical(cfg, r.SchemeJSON, r.BenchJSON, s.Version())
				if err != nil {
					t.Fatal(err)
				}
				fl, leader := s.join(key)
				if !leader {
					t.Fatal("an empty store already had a flight")
				}
				waited := make(chan Served, 1)
				go func() {
					c, err := s.CellResolved(ctx, cfg, r.Scheme, r.Spec, key)
					if err != nil {
						t.Error(err)
					}
					waited <- c
				}()
				for s.Counters().InflightWaits == 0 {
					runtime.Gosched()
				}
				res, err := core.RunOneOf(ctx, cfg, r.Scheme, r.Spec)
				if err != nil {
					t.Fatal(err)
				}
				s.finish(key, fl, cfg, res)
				want := docRendering(t, res)
				if !bytes.Equal(fl.render, want) {
					t.Fatalf("computed rendering %q, want %q", fl.render, want)
				}
				if c := <-waited; c.Origin != OriginInflight || !sameBytes(c.Rendering, fl.render) {
					t.Fatalf("waiter: origin %s rendering %q, want inflight with the leader's bytes", c.Origin, c.Rendering)
				}
				hit("computed", key, fl.render)

				filled, err := s.FillCell(synthKey(1), cfg, res)
				if err != nil || !bytes.Equal(filled, want) {
					t.Fatalf("FillCell: rendering %q err %v, want %q", filled, err, want)
				}
				hit("filled", synthKey(1), filled)
			})
		}
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
// serves the same result, with a rendering made from it.
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
	if !ok || got.Origin != OriginDisk || !bytes.Equal(got.Rendering, c.Rendering) {
		t.Fatalf("compact manifest: ok %v origin %s rendering %q, want a disk hit with %q", ok, got.Origin, got.Rendering, c.Rendering)
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
