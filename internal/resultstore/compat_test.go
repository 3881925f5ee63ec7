package resultstore

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/testutil"
)

// Back-compat: a seed-era store holds uncompressed .json manifests.  The
// lifecycle store must read and serve them unchanged, and migrate each
// one to the compressed form the first time it is read — converging the
// store in place, one cell at a time, with no rewrite pass and no
// recomputation.

// writeLegacyStore lays out an uncompressed pre-lifecycle store: n cells
// computed for real, persisted in the seed era's format.
func writeLegacyStore(t *testing.T, dir string, n int) (keys []string, results []any) {
	t.Helper()
	cfg := tinyConfig()
	ctx := context.Background()
	compute := openTemp(t, Options{}) // scratch store; results only
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = uint64(100 + i)
		res, _, err := compute.Cell(ctx, c, "xor", "crc")
		if err != nil {
			t.Fatal(err)
		}
		key, err := cellKey(c, "xor", "crc", CodeVersion)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := encodeManifest(key, CodeVersion, c, res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key[:2], key+legacyManifestExt)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keys, results = append(keys, key), append(results, res)
	}
	return keys, results
}

func TestLegacyStoreServedAndMigrated(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	ctx := context.Background()
	cfg := tinyConfig()
	const n = 6
	keys, results := writeLegacyStore(t, dir, n)

	s := openTemp(t, Options{Dir: dir})
	// The startup scrub counts legacy manifests into the ledger.
	if st := s.Stats(); st.Manifests != n {
		t.Fatalf("scrub counted %d manifests, want %d", st.Manifests, n)
	}

	// Read half the cells through the public API: disk hits, results
	// identical to the seed-era computation, each migrated in place.
	for i := 0; i < n/2; i++ {
		c := cfg
		c.Seed = uint64(100 + i)
		res, origin, err := s.Cell(ctx, c, "xor", "crc")
		if err != nil {
			t.Fatal(err)
		}
		if origin != OriginDisk {
			t.Fatalf("cell %d origin = %s, want %s (no recompute)", i, origin, OriginDisk)
		}
		if !reflect.DeepEqual(res, results[i]) {
			t.Fatalf("cell %d drifted through the legacy read", i)
		}
	}
	if got := s.Counters().Migrations; got != n/2 {
		t.Fatalf("Migrations = %d, want %d", got, n/2)
	}
	for i, key := range keys {
		zExists := fileSize(s.manifestPath(key)) >= 0
		legacyExists := fileSize(s.legacyManifestPath(key)) >= 0
		if i < n/2 && (!zExists || legacyExists) {
			t.Errorf("cell %d: compressed=%t legacy=%t, want migrated", i, zExists, legacyExists)
		}
		if i >= n/2 && (zExists || !legacyExists) {
			t.Errorf("cell %d: compressed=%t legacy=%t, want untouched legacy", i, zExists, legacyExists)
		}
	}
	// Migration preserves the count and keeps the ledger physical.
	if st := s.Stats(); st.Manifests != n {
		t.Errorf("ledger counts %d manifests mid-migration, want %d", st.Manifests, n)
	}
	if st, used := s.Stats(), diskUsage(t, dir); used != st.BytesUsed {
		t.Errorf("physical %d != ledger %d mid-migration", used, st.BytesUsed)
	}

	// A restart finishes the job: the remaining legacy cells still serve
	// from disk and migrate on their first read.
	s2 := openTemp(t, Options{Dir: dir})
	for i := n / 2; i < n; i++ {
		c := cfg
		c.Seed = uint64(100 + i)
		res, origin, err := s2.Cell(ctx, c, "xor", "crc")
		if err != nil {
			t.Fatal(err)
		}
		if origin != OriginDisk {
			t.Fatalf("cell %d origin after restart = %s, want %s", i, origin, OriginDisk)
		}
		if !reflect.DeepEqual(res, results[i]) {
			t.Fatalf("cell %d drifted after restart", i)
		}
	}
	for i, key := range keys {
		if fileSize(s2.manifestPath(key)) < 0 || fileSize(s2.legacyManifestPath(key)) >= 0 {
			t.Errorf("cell %d not fully migrated after second pass", i)
		}
	}

	// Fully migrated: a third store serves everything compressed, no
	// migrations left to run.
	s3 := openTemp(t, Options{Dir: dir})
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = uint64(100 + i)
		res, origin, err := s3.Cell(ctx, c, "xor", "crc")
		if err != nil {
			t.Fatal(err)
		}
		if origin != OriginDisk || !reflect.DeepEqual(res, results[i]) {
			t.Fatalf("cell %d wrong after full migration (origin %s)", i, origin)
		}
	}
	if got := s3.Counters().Migrations; got != 0 {
		t.Errorf("Migrations = %d on a fully migrated store", got)
	}
}

// TestDeepScrubKeepsLegacyAndDropsCorrupt: DeepScrub decodes artifacts;
// a readable legacy manifest survives it, a truncated compressed one is
// removed and counted.
func TestDeepScrubKeepsLegacyAndDropsCorrupt(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	keys, _ := writeLegacyStore(t, dir, 2)

	// A torn compressed manifest under a valid name.
	bad := synthKey(7)
	badPath := filepath.Join(dir, bad[:2], bad+manifestExt)
	if err := os.MkdirAll(filepath.Dir(badPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, []byte("not deflate at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTemp(t, Options{Dir: dir, DeepScrub: true})
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Error("deep scrub kept the torn manifest")
	}
	if st := s.Stats(); st.Manifests != 2 {
		t.Errorf("deep scrub counted %d manifests, want the 2 legacy ones", st.Manifests)
	}
	for _, key := range keys {
		if fileSize(s.legacyManifestPath(key)) < 0 {
			t.Error("deep scrub removed a readable legacy manifest")
		}
	}
	if s.Counters().CorruptManifests == 0 {
		t.Error("torn manifest not counted corrupt")
	}
}

// TestDeepScrubKeepsStaleVersion: a manifest written under another code
// version is stale, not corrupt, and survives DeepScrub; a manifest
// copied under another cell's name is removed.
func TestDeepScrubKeepsStaleVersion(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	old := openTemp(t, Options{Dir: dir, Version: "old"})
	cfg := tinyConfig()
	if _, _, err := old.Cell(context.Background(), cfg, "xor", "crc"); err != nil {
		t.Fatal(err)
	}
	key, err := CellKeyDecl(cfg, registry.Decl{Name: "xor"}, registry.Decl{Name: "crc"}, "old")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(old.manifestPath(key))
	if err != nil {
		t.Fatal(err)
	}
	moved := synthKey(9)
	movedPath := old.manifestPath(moved)
	if err := os.MkdirAll(filepath.Dir(movedPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(movedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := openTemp(t, Options{Dir: dir, DeepScrub: true})
	if fileSize(s.manifestPath(key)) < 0 {
		t.Error("deep scrub removed a stale-version manifest")
	}
	if fileSize(movedPath) >= 0 {
		t.Error("deep scrub kept a manifest under another cell's name")
	}
	if st := s.Stats(); st.Manifests != 1 {
		t.Errorf("deep scrub counted %d manifests, want the stale one", st.Manifests)
	}
}
