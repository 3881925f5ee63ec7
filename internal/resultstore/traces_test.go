package resultstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/testutil"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

func TestTraceKeyIdentity(t *testing.T) {
	cfg := tinyConfig()
	k1, err := TraceKey(cfg, "kernel/fft", CodeVersion)
	if err != nil {
		t.Fatal(err)
	}

	// Execution-steering and cache-geometry fields must not perturb the
	// key: the stream only depends on (benchmark, length, seed).
	cfg2 := cfg
	cfg2.Parallelism = 7
	cfg2.MissPenalty = 99
	cfg2.Layout = core.Default().Layout
	k2, err := TraceKey(cfg2, "kernel/fft", CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("trace key depends on non-stream config fields")
	}

	for name, mut := range map[string]func(*core.Config) string{
		"seed":    func(c *core.Config) string { c.Seed++; return "kernel/fft" },
		"length":  func(c *core.Config) string { c.TraceLength++; return "kernel/fft" },
		"bench":   func(c *core.Config) string { return "kernel/sha" },
		"version": func(c *core.Config) string { return "kernel/fft" },
	} {
		c := cfg
		bench := mut(&c)
		version := CodeVersion
		if name == "version" {
			version = "other"
		}
		k, err := TraceKey(c, bench, version)
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("trace key ignores %s", name)
		}
	}

	if _, err := TraceKey(cfg, "", CodeVersion); err == nil {
		t.Error("empty benchmark key accepted")
	}
}

// TestTraceTierLifecycle walks a trace artifact through its tiers:
// compiled (and persisted) by the first store, then reloaded from disk by
// a fresh store standing in for the next process — with every grid
// result byte-identical to a store that never compiles traces.
func TestTraceTierLifecycle(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()
	schemes := []registry.Decl{{Name: "baseline"}, {Name: "xor"}, {Name: "column_associative"}}
	benches := []registry.Decl{{Name: "crc"}, {Kind: "zipf"}}

	plain := openTemp(t, Options{})
	want, err := plain.GridDecls(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}

	s1 := openTemp(t, Options{Dir: dir, CompileTraces: true})
	got, err := s1.GridDecls(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("compiled-trace grid diverges from generator grid")
	}
	c1 := s1.Counters()
	if c1.TraceCompiles != uint64(len(benches)) {
		t.Fatalf("TraceCompiles = %d, want %d", c1.TraceCompiles, len(benches))
	}
	entries, err := filepath.Glob(filepath.Join(dir, "traces", "*", "*.ctz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(benches) {
		t.Fatalf("persisted %d trace artifacts, want %d", len(entries), len(benches))
	}

	// A fresh store on the same directory stands in for the next process.
	// Dropping the cell manifests (but not the artifacts) forces every
	// cell to recompute — through the persisted traces, not the
	// generators.
	if err := removeManifests(dir); err != nil {
		t.Fatal(err)
	}
	s2 := openTemp(t, Options{Dir: dir, CompileTraces: true})
	got2, err := s2.GridDecls(ctx, cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("disk-replayed grid diverges")
	}
	c2 := s2.Counters()
	if c2.TraceCompiles != 0 {
		t.Errorf("second process recompiled %d traces", c2.TraceCompiles)
	}
	if c2.TraceDiskHits != uint64(len(benches)) {
		t.Errorf("TraceDiskHits = %d, want %d", c2.TraceDiskHits, len(benches))
	}
}

// removeManifests deletes cell manifests but leaves trace artifacts, so
// a store must recompute cells while replaying compiled traces.
func removeManifests(dir string) error {
	manifests, err := filepath.Glob(filepath.Join(dir, "??", "*.json*"))
	if err != nil {
		return err
	}
	for _, m := range manifests {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}

// TestTraceArtifactCorruptionRecompiles: a torn or tampered artifact is
// a counted miss, recompiled and rewritten — never an error, never
// trusted.
func TestTraceArtifactCorruptionRecompiles(t *testing.T) {
	defer testutil.CheckLeaks(t)
	dir := t.TempDir()
	cfg := tinyConfig()
	ctx := context.Background()

	s1 := openTemp(t, Options{Dir: dir, CompileTraces: true})
	res1, _, err := s1.Cell(ctx, cfg, "baseline", "crc")
	if err != nil {
		t.Fatal(err)
	}
	arts, err := filepath.Glob(filepath.Join(dir, "traces", "*", "*.ctz"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("artifacts = %v (%v)", arts, err)
	}
	if err := os.WriteFile(arts[0], []byte("not deflate"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := removeManifests(dir); err != nil {
		t.Fatal(err)
	}

	s2 := openTemp(t, Options{Dir: dir, CompileTraces: true})
	res2, _, err := s2.Cell(ctx, cfg, "baseline", "crc")
	if err != nil {
		t.Fatal(err)
	}
	res1.Err, res2.Err = nil, nil
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("result after artifact corruption diverges")
	}
	c := s2.Counters()
	if c.CorruptManifests == 0 {
		t.Error("corrupt artifact not counted")
	}
	if c.TraceCompiles != 1 {
		t.Errorf("TraceCompiles = %d, want 1 (recompile)", c.TraceCompiles)
	}
}

// TestTraceTierMemoryOnly: CompileTraces without a Dir still compiles
// once and replays from memory.
func TestTraceTierMemoryOnly(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := tinyConfig()
	ctx := context.Background()
	s, err := Open(Options{CompileTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"baseline", "xor"} {
		if _, _, err := s.Cell(ctx, cfg, scheme, "sha"); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Counters()
	if c.TraceCompiles != 1 {
		t.Errorf("TraceCompiles = %d, want 1", c.TraceCompiles)
	}
	if c.TraceMemoryHits == 0 {
		t.Error("second cell did not replay from the memory tier")
	}
}

// TestTraceSourceDisabledByDefault: without CompileTraces the store must
// not implement an active trace tier (CompiledTrace errors, engines fall
// back) and must not write a traces directory.
func TestTraceSourceDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	s := openTemp(t, Options{Dir: dir})
	if _, _, err := s.Cell(context.Background(), cfg, "baseline", "crc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompiledTrace(context.Background(), cfg, workload.MustLookup("crc")); err == nil {
		t.Error("disabled trace tier served a trace")
	}
	if _, err := os.Stat(filepath.Join(dir, "traces")); !os.IsNotExist(err) {
		t.Errorf("traces directory exists without CompileTraces (stat err = %v)", err)
	}
	if c := s.Counters(); c.TraceCompiles != 0 {
		t.Errorf("TraceCompiles = %d without CompileTraces", c.TraceCompiles)
	}
}

// gatedSpec is a cacheable benchmark (crc's stream under its own key)
// whose every compilation parks on its first read until release is
// closed or the compiling request's context ends.  Each compilation that
// reaches the stream sends on started, so a test sees exactly how many
// compilations ran and controls when they finish.
func gatedSpec(started chan<- struct{}, release <-chan struct{}) workload.Spec {
	crc := workload.MustLookup("crc")
	spec := workload.NewSpec("gated", workload.MiBench, "crc behind a gate",
		func(ctx context.Context, seed uint64, n int) trace.BatchReader {
			started <- struct{}{}
			return &gatedReader{ctx: ctx, inner: crc.StreamCtx(ctx, seed, n), release: release}
		})
	spec.Key = "test/gated-crc"
	return spec
}

type gatedReader struct {
	ctx     context.Context
	inner   trace.BatchReader
	release <-chan struct{}
	opened  bool
}

func (g *gatedReader) ReadBatch(dst []trace.Access) (int, error) {
	if !g.opened {
		select {
		case <-g.release:
			g.opened = true
		case <-g.ctx.Done():
			return 0, g.ctx.Err()
		}
	}
	return g.inner.ReadBatch(dst)
}

func (g *gatedReader) Close() error {
	trace.CloseBatch(g.inner)
	return nil
}

// parkedInTraceCache counts goroutines blocked inside the store's trace
// cache: a compiling leader parked on the gate, or a request parked on
// its flight.
func parkedInTraceCache() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		head, _, _ := strings.Cut(g, "\n")
		if strings.Contains(head, "[select") && strings.Contains(g, "core.(*MemTraceCache).CompiledTrace") {
			n++
		}
	}
	return n
}

// TestTraceSingleflightCollapse: concurrent requests for one benchmark's
// trace compile it once, and every request gets the same artifact.
func TestTraceSingleflightCollapse(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := tinyConfig()
	s := openTemp(t, Options{CompileTraces: true})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	spec := gatedSpec(started, release)

	const requests = 8
	cts := make([]*trace.Compiled, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cts[i], errs[i] = s.CompiledTrace(context.Background(), cfg, spec)
		}(i)
	}
	<-started
	testutil.WaitFor(t, 10*time.Second, "every request parked on the one compilation",
		func() bool { return parkedInTraceCache() == requests })
	close(release)
	wg.Wait()

	for i := range cts {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if cts[i] != cts[0] {
			t.Errorf("request %d got a different artifact than request 0", i)
		}
	}
	if c := s.Counters(); c.TraceCompiles != 1 {
		t.Errorf("TraceCompiles = %d for %d concurrent requests, want 1", c.TraceCompiles, requests)
	}
	if n := len(started); n != 0 {
		t.Errorf("%d extra compilations reached the stream", n)
	}
	checkInvariants(t, s)
}

// TestTraceSingleflightLeaderCancelled: when the compiling request gives
// up mid-compile, a request still waiting on its flight recompiles and
// succeeds; the abandoned compilation is neither counted nor cached.
func TestTraceSingleflightLeaderCancelled(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := tinyConfig()
	s := openTemp(t, Options{CompileTraces: true})
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	spec := gatedSpec(started, release)

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.CompiledTrace(leaderCtx, cfg, spec)
		leaderErr <- err
	}()
	<-started

	waiterCT := make(chan *trace.Compiled, 1)
	waiterErr := make(chan error, 1)
	go func() {
		ct, err := s.CompiledTrace(context.Background(), cfg, spec)
		waiterCT <- ct
		waiterErr <- err
	}()
	testutil.WaitFor(t, 10*time.Second, "the waiter parked on the leader's flight",
		func() bool { return parkedInTraceCache() == 2 })

	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	close(release)
	ct, err := <-waiterCT, <-waiterErr
	if err != nil || ct == nil {
		t.Fatalf("waiter after a cancelled leader: (%v, %v), want a trace", ct, err)
	}
	if n := len(started); n != 1 {
		t.Errorf("%d compilations after the leader gave up, want 1 (the waiter's)", n)
	}
	if c := s.Counters(); c.TraceCompiles != 1 {
		t.Errorf("TraceCompiles = %d, want 1 (the abandoned compile is not counted)", c.TraceCompiles)
	}
	again, err := s.CompiledTrace(context.Background(), cfg, spec)
	if err != nil || again != ct {
		t.Errorf("repeat request = (%p, %v), want the cached %p", again, err, ct)
	}
	checkInvariants(t, s)
}
