package core

import (
	"context"
	"reflect"
	"testing"

	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// The compiled-trace contract is the fan-out grid's taken one level
// further: replaying a benchmark from its compiled artifact — serially or
// sharded across workers — must be byte-identical to replaying the
// generator, for every workload kind and every scheme in the roster,
// because the decoded stream IS the generated stream.

// tracedWorkloads resolves one instance of every registered workload
// kind, plus a roster-style declared composition with non-default
// parameters.
func tracedWorkloads(t *testing.T) []workload.Spec {
	t.Helper()
	decls := []registry.Decl{
		{Name: "fft"}, // kernel, by name
		{Kind: "zipf"},
		{Kind: "zipf", Name: "zipf-hot", Params: registry.Params{"skew": 2.0, "blocks": 1024}},
		{Kind: "mix", Params: registry.Params{"data": "sha"}},
		{Kind: "interleave", Params: registry.Params{"parts": []string{"fft", "crc"}}},
	}
	specs := make([]workload.Spec, len(decls))
	for i, d := range decls {
		spec, _, err := registry.ResolveWorkload(d)
		if err != nil {
			t.Fatalf("resolve %+v: %v", d, err)
		}
		if spec.Key == "" {
			t.Fatalf("resolved workload %q has no trace-cache identity", spec.Name)
		}
		specs[i] = spec
	}
	return specs
}

func fullRoster(t *testing.T) []Scheme {
	t.Helper()
	names := SchemeNames("")
	out := make([]Scheme, len(names))
	for i, n := range names {
		s, err := SchemeByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestCompiledReplayMatchesGenerator(t *testing.T) {
	cfg := Default()
	cfg.TraceLength = 12_000
	schemes := fullRoster(t)
	benches := tracedWorkloads(t)

	cfg.Parallelism = 1
	want, err := GridOf(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatalf("generator grid: %v", err)
	}

	// Parallelism 1 exercises serial decoded replay; 16 forces an
	// intra-benchmark shard budget (the grid has at most 16/len(benches)
	// workers per benchmark), driving both the windowed-exact segment
	// engine and the scheme-partition groups.  The short segment length
	// makes even these short traces multi-segment.
	for _, par := range []int{1, 16} {
		tc := NewMemTraceCache(0)
		tc.Compile = func(ctx context.Context, cfg Config, bench workload.Spec) (*trace.Compiled, error) {
			return bench.Compile(ctx, cfg.Seed, cfg.TraceLength, 1024)
		}
		cfg := cfg
		cfg.Parallelism = par
		cfg.Traces = tc
		got, err := GridOf(context.Background(), cfg, schemes, benches)
		if err != nil {
			t.Fatalf("compiled grid (parallelism=%d): %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			for b, row := range want {
				for s, w := range row {
					if g := got[b][s]; !reflect.DeepEqual(g, w) {
						t.Fatalf("parallelism=%d: grid[%s][%s] diverges\n got: %+v\nwant: %+v", par, b, s, g, w)
					}
				}
			}
			t.Fatalf("parallelism=%d: compiled grid diverges from generator grid", par)
		}
		compiles, _ := tc.Stats()
		if compiles != uint64(len(benches)) {
			t.Errorf("parallelism=%d: %d compilations for %d benchmarks", par, compiles, len(benches))
		}
		// A repeat of the same grid must replay entirely from cache.
		again, err := GridOf(context.Background(), cfg, schemes, benches)
		if err != nil {
			t.Fatalf("repeat compiled grid (parallelism=%d): %v", par, err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("parallelism=%d: repeat compiled grid diverges", par)
		}
		compiles2, hits := tc.Stats()
		if compiles2 != compiles {
			t.Errorf("parallelism=%d: repeat grid recompiled (%d -> %d)", par, compiles, compiles2)
		}
		if hits < uint64(len(benches)) {
			t.Errorf("parallelism=%d: repeat grid hit the cache %d times, want >= %d", par, hits, len(benches))
		}
	}
}

func TestCompiledReplayMatchesGeneratorPerCell(t *testing.T) {
	cfg := Default()
	cfg.TraceLength = 10_000
	schemes := fullRoster(t)[:6]
	benches := tracedWorkloads(t)[:2]

	want, err := gridPerCell(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Traces = NewMemTraceCache(0)
	got, err := gridPerCell(context.Background(), cfg, schemes, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("per-cell compiled grid diverges from generator grid")
	}
}

func TestCompiledReplayMatchesRunOne(t *testing.T) {
	cfg := Default()
	cfg.TraceLength = 10_000
	want, err := RunOne(context.Background(), cfg, "givargis", "sha")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Traces = NewMemTraceCache(0)
	got, err := RunOne(context.Background(), cfg, "givargis", "sha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled RunOne diverges\n got: %+v\nwant: %+v", got, want)
	}
}

// TestTraceSourceFallsBackForUncacheable pins the fallback contract: a
// spec without a trace-cache identity (the fault-injection seam) must
// run through the generator, not error, with a trace source installed.
func TestTraceSourceFallsBackForUncacheable(t *testing.T) {
	cfg := Default()
	cfg.TraceLength = 5_000
	cfg.Traces = NewMemTraceCache(0)
	base := workload.MustLookup("crc")
	anon := workload.NewSpec("anon", workload.MiBench, "uncacheable wrapper",
		base.StreamCtx)
	if anon.Key != "" {
		t.Fatal("NewSpec spec unexpectedly has a Key")
	}
	scheme, err := SchemeByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOneOf(context.Background(), cfg, scheme, anon)
	if err != nil {
		t.Fatal(err)
	}
	named, err := RunOneOf(context.Background(), cfg, scheme, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != named.Counters {
		t.Fatalf("uncacheable spec diverges from its kernel: %+v vs %+v", res.Counters, named.Counters)
	}
	tc := cfg.Traces.(*MemTraceCache)
	if compiles, _ := tc.Stats(); compiles != 1 {
		t.Errorf("expected exactly the named run's compilation, got %d", compiles)
	}
}

func TestMemTraceCacheEviction(t *testing.T) {
	tc := NewMemTraceCache(1) // smaller than any artifact: serve, never retain
	cfg := Default()
	cfg.TraceLength = 2_000
	cfg = cfg.normalized()
	bench := workload.MustLookup("crc")
	for i := 0; i < 3; i++ {
		if _, err := tc.CompiledTrace(context.Background(), cfg, bench); err != nil {
			t.Fatal(err)
		}
	}
	compiles, hits := tc.Stats()
	if compiles != 3 || hits != 0 {
		t.Errorf("over-budget artifacts should recompile every time: compiles=%d hits=%d", compiles, hits)
	}
}
