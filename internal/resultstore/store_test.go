package resultstore

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/testutil"
)

// tinyConfig keeps store tests fast: 2k accesses over 64 sets.
func tinyConfig() core.Config {
	cfg := core.Default()
	cfg.TraceLength = 2_000
	cfg.Layout = addr.MustLayout(32, 64, 32)
	return cfg
}

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCellTierProgression walks one cell through the full tier ladder:
// computed -> memory -> (new process) disk -> memory.
func TestCellTierProgression(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()

	s1 := openTemp(t, Options{Dir: dir})
	res, origin, err := s1.Cell(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("first request origin = %s, want %s", origin, OriginComputed)
	}
	if res.Counters.Accesses == 0 {
		t.Fatal("computed result has no accesses")
	}

	again, origin, err := s1.Cell(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginMemory {
		t.Fatalf("second request origin = %s, want %s", origin, OriginMemory)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("memory tier returned a different result")
	}

	// A fresh store over the same directory simulates a new process: the
	// memory tier is cold, the manifest is not.
	s2 := openTemp(t, Options{Dir: dir})
	fromDisk, origin, err := s2.Cell(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDisk {
		t.Fatalf("new-store request origin = %s, want %s", origin, OriginDisk)
	}
	if !reflect.DeepEqual(res, fromDisk) {
		t.Fatalf("disk round-trip drift:\n got %+v\nwant %+v", fromDisk, res)
	}

	// The disk hit was promoted.
	if _, origin, _ = s2.Cell(ctx, cfg, "xor", "crc"); origin != OriginMemory {
		t.Fatalf("post-promotion origin = %s, want %s", origin, OriginMemory)
	}

	c := s2.Counters()
	if c.DiskHits != 1 || c.MemoryHits != 1 || c.Misses != 0 {
		t.Fatalf("counters = %+v, want 1 disk hit, 1 memory hit, 0 misses", c)
	}
}

// TestCellMatchesDirectRun pins the memoization contract: a cell served
// by any tier must equal what core.RunOne computes directly.
func TestCellMatchesDirectRun(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := tinyConfig()
	ctx := context.Background()
	direct, err := core.RunOne(ctx, cfg, "odd_multiplier", "fft")
	if err != nil {
		t.Fatal(err)
	}
	s := openTemp(t, Options{})
	for i := 0; i < 2; i++ {
		got, _, err := s.Cell(ctx, cfg, "odd_multiplier", "fft")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("request %d differs from direct RunOne", i)
		}
	}
}

func TestCellRejectsUnknownNames(t *testing.T) {
	s := openTemp(t, Options{})
	ctx := context.Background()
	if _, _, err := s.Cell(ctx, tinyConfig(), "no_such_scheme", "crc"); err == nil {
		t.Fatal("unknown scheme: want error")
	}
	if _, _, err := s.Cell(ctx, tinyConfig(), "xor", "no_such_bench"); err == nil {
		t.Fatal("unknown benchmark: want error")
	}
	if c := s.Counters(); c.Misses != 0 {
		t.Fatalf("invalid names touched the tiers: %+v", c)
	}
}

// TestSingleflightCollapse: N concurrent requests for one cold cell run
// exactly one simulation.
func TestSingleflightCollapse(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{})
	cfg := tinyConfig()
	ctx := context.Background()

	const n = 16
	origins := make([]Origin, n)
	results := make([]core.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, origin, err := s.Cell(ctx, cfg, "xor", "qsort")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			origins[i] = origin
			results[i] = res
		}(i)
	}
	wg.Wait()

	computed := 0
	for _, o := range origins {
		if o == OriginComputed {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d requests computed, want exactly 1 (origins: %v)", computed, origins)
	}
	if c := s.Counters(); c.Stores != 1 {
		t.Fatalf("Stores = %d, want 1", c.Stores)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("request %d received a different result", i)
		}
	}
}

// TestParallelGetPutRace hammers a shared store from many goroutines over
// overlapping cells; run under -race this is the data-race probe for the
// LRU, flight map, and manifest IO.
func TestParallelGetPutRace(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{Dir: t.TempDir(), MemoryEntries: 2}) // tiny LRU forces eviction/promotion churn
	cfg := tinyConfig()
	ctx := context.Background()
	schemes := []string{"baseline", "xor"}
	benches := []string{"crc", "fft"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sc := schemes[(g+i)%len(schemes)]
				b := benches[(g+i/2)%len(benches)]
				if _, _, err := s.Cell(ctx, cfg, sc, b); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every cell must have converged to the direct result.
	for _, sc := range schemes {
		for _, b := range benches {
			direct, err := core.RunOne(ctx, cfg, sc, b)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.Cell(ctx, cfg, sc, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, direct) {
				t.Fatalf("cell %s/%s drifted from direct run", sc, b)
			}
		}
	}
}

// TestCrashRecovery: torn or corrupt manifests are silent misses that get
// rewritten, never failures.
func TestCrashRecovery(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()

	s1 := openTemp(t, Options{Dir: dir})
	if _, _, err := s1.Cell(ctx, cfg, "xor", "crc"); err != nil {
		t.Fatal(err)
	}
	key, err := CellKey(cfg, "xor", "crc", s1.Version())
	if err != nil {
		t.Fatal(err)
	}
	path := s1.manifestPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write that somehow published a torn file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTemp(t, Options{Dir: dir})
	_, origin, err := s2.Cell(ctx, cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("torn manifest served as %s, want recompute", origin)
	}
	if c := s2.Counters(); c.CorruptManifests != 1 {
		t.Fatalf("CorruptManifests = %d, want 1", c.CorruptManifests)
	}

	// The recompute healed the manifest: a third store reads it from disk.
	s3 := openTemp(t, Options{Dir: dir})
	if _, origin, _ = s3.Cell(ctx, cfg, "xor", "crc"); origin != OriginDisk {
		t.Fatalf("healed manifest origin = %s, want %s", origin, OriginDisk)
	}

	// A manifest copied under the wrong key must not impersonate that key.
	otherKey, err := CellKey(cfg, "baseline", "crc", s3.Version())
	if err != nil {
		t.Fatal(err)
	}
	otherPath := s3.manifestPath(otherKey)
	if err := os.MkdirAll(filepath.Dir(otherPath), 0o755); err != nil {
		t.Fatal(err)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, healed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, origin, _ = s3.Cell(ctx, cfg, "baseline", "crc"); origin != OriginComputed {
		t.Fatalf("mismatched manifest served as %s, want recompute", origin)
	}
}

// TestVersionMismatchIsMiss: entries written under an older code version
// are invisible, not wrong.
func TestVersionMismatchIsMiss(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()

	old := openTemp(t, Options{Dir: dir, Version: "old"})
	if _, _, err := old.Cell(ctx, cfg, "xor", "crc"); err != nil {
		t.Fatal(err)
	}
	next := openTemp(t, Options{Dir: dir, Version: "new"})
	if _, origin, _ := next.Cell(ctx, cfg, "xor", "crc"); origin != OriginComputed {
		t.Fatalf("stale-version entry served as %s, want recompute", origin)
	}
}

// TestErrorsNeverCached: a cancelled computation is returned to its
// requester but not stored; the next live request recomputes cleanly.
func TestErrorsNeverCached(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{Dir: t.TempDir()})
	cfg := tinyConfig()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, origin, err := s.Cell(cancelled, cfg, "xor", "crc")
	if err == nil || res.Err == nil {
		t.Fatalf("cancelled run: want error, got origin=%s err=%v", origin, err)
	}
	if c := s.Counters(); c.Stores != 0 {
		t.Fatalf("failed result was stored (Stores = %d)", c.Stores)
	}

	good, origin, err := s.Cell(context.Background(), cfg, "xor", "crc")
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed || good.Err != nil {
		t.Fatalf("recovery run: origin=%s err=%v", origin, good.Err)
	}
	if c := s.Counters(); c.Stores != 1 {
		t.Fatalf("Stores = %d, want 1", c.Stores)
	}
}

// TestLRUBound: the memory tier never exceeds its capacity and counts
// evictions.
func TestLRUBound(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s, err := Open(Options{MemoryEntries: 2}) // memory-only: no disk tier to fall back on
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	ctx := context.Background()
	for _, b := range []string{"crc", "fft", "qsort"} {
		if _, _, err := s.Cell(ctx, cfg, "baseline", b); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.mem.len(); n > 2 {
		t.Fatalf("LRU holds %d entries, cap 2", n)
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions)
	}
	// Memory-only store with the first cell evicted: recompute, not disk.
	if _, origin, _ := s.Cell(ctx, cfg, "baseline", "crc"); origin != OriginComputed {
		t.Fatalf("evicted cell origin = %s, want recompute", origin)
	}
}

// TestGridIncremental: a second identical grid is served entirely from
// the store, and a widened grid computes only the new column.
func TestGridIncremental(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{Dir: t.TempDir()})
	cfg := tinyConfig()
	ctx := context.Background()
	schemes := []string{"baseline", "xor"}
	benches := []string{"crc", "fft"}

	first, err := s.Grid(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Grid(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, direct) {
		t.Fatal("store grid differs from direct grid")
	}
	c := s.Counters()
	if c.Misses != 4 || c.Stores != 4 {
		t.Fatalf("cold grid counters = %+v, want 4 misses / 4 stores", c)
	}

	second, err := s.Grid(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, direct) {
		t.Fatal("warm grid differs from direct grid")
	}
	c = s.Counters()
	if c.Misses != 4 || c.MemoryHits != 4 {
		t.Fatalf("warm grid counters = %+v, want no new misses and 4 memory hits", c)
	}

	// Widen by one scheme: exactly two new cells are computed.
	if _, err := s.Grid(ctx, cfg, append(schemes, "prime_modulo"), benches); err != nil {
		t.Fatal(err)
	}
	c = s.Counters()
	if c.Misses != 6 || c.Stores != 6 {
		t.Fatalf("widened grid counters = %+v, want 6 misses / 6 stores", c)
	}
}

// TestGridCancelledPartial: the store grid honours core.Grid's
// partial-results contract.
func TestGridCancelledPartial(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.Grid(cancelled, tinyConfig(), []string{"baseline", "xor"}, []string{"crc"})
	if err == nil {
		t.Fatal("cancelled grid: want error")
	}
	for _, sc := range []string{"baseline", "xor"} {
		res, ok := out["crc"][sc]
		if !ok {
			t.Fatalf("cell crc/%s missing from cancelled grid", sc)
		}
		if res.Err == nil {
			t.Fatalf("cell crc/%s has no error after cancellation", sc)
		}
	}
	if c := s.Counters(); c.Stores != 0 {
		t.Fatalf("cancelled grid stored %d cells", c.Stores)
	}
}

// TestMemoizerInstallation: setting Config.Memo routes the core entry
// points through the store — the integration the CLIs and server rely on.
func TestMemoizerInstallation(t *testing.T) {
	defer testutil.CheckLeaks(t)
	s := openTemp(t, Options{})
	cfg := tinyConfig()
	cfg.Memo = s
	ctx := context.Background()

	if _, err := core.Grid(ctx, cfg, []string{"baseline", "xor"}, []string{"crc"}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Stores != 2 {
		t.Fatalf("Stores = %d after first grid, want 2", c.Stores)
	}
	if _, err := core.Grid(ctx, cfg, []string{"baseline", "xor"}, []string{"crc"}); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.MemoryHits != 2 || c.Stores != 2 {
		t.Fatalf("second grid counters = %+v, want 2 memory hits and no new stores", c)
	}
	if _, err := core.RunOne(ctx, cfg, "baseline", "crc"); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.MemoryHits != 3 {
		t.Fatalf("RunOne did not hit the store (counters %+v)", c)
	}
}
