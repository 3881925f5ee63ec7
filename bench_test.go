// Package cacheuniformity's root benchmark harness: one testing.B
// benchmark per paper figure (regenerating the figure's table each
// iteration and reporting its headline number as a custom metric), plus
// ablation benchmarks for the design choices called out in DESIGN.md §5
// and microbenchmarks of the hot simulation paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's data only:
//
//	go test -bench=BenchmarkFig04 -benchtime=1x
package cacheuniformity

import (
	"context"

	"errors"
	"fmt"
	"io"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// benchCfg keeps per-iteration work modest; the figure *shapes* are stable
// at this trace length (the full-length tables come from cmd/experiments).
func benchCfg() core.Config {
	cfg := core.Default()
	cfg.TraceLength = 25_000
	return cfg
}

// runFigure is the shared body of the per-figure benchmarks.  metricRow /
// metricCol pick the table cell reported as the benchmark's custom metric.
func runFigure(b *testing.B, id int, metricRow, metricCol, metricName string) {
	b.Helper()
	fig, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	var tbl *report.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err = fig.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if v, ok := tbl.Value(metricRow, metricCol); ok {
		b.ReportMetric(v, metricName)
	}
}

func BenchmarkFig01AccessHistogram(b *testing.B) {
	runFigure(b, 1, "sets_below_half_average_pct", "value", "%sets<half")
}

func BenchmarkFig04IndexingSchemes(b *testing.B) {
	runFigure(b, 4, "Average", "xor", "avg%red(xor)")
}

func BenchmarkFig06ProgrammableAssoc(b *testing.B) {
	runFigure(b, 6, "Average", "column_associative", "avg%red(col)")
}

func BenchmarkFig07AMAT(b *testing.B) {
	runFigure(b, 7, "Average", "column_associative", "avg%redAMAT")
}

func BenchmarkFig08HybridColumnAssoc(b *testing.B) {
	runFigure(b, 8, "Average", "column_odd_multiplier", "avg%red(om)")
}

func BenchmarkFig09Kurtosis(b *testing.B) {
	runFigure(b, 9, "fft", "xor", "fft%dKurt(xor)")
}

func BenchmarkFig10Skewness(b *testing.B) {
	runFigure(b, 10, "fft", "xor", "fft%dSkew(xor)")
}

func BenchmarkFig11KurtosisAssoc(b *testing.B) {
	runFigure(b, 11, "fft", "adaptive", "fft%dKurt(ad)")
}

func BenchmarkFig12SkewnessAssoc(b *testing.B) {
	runFigure(b, 12, "fft", "adaptive", "fft%dSkew(ad)")
}

func BenchmarkFig13MultiIndexSMT(b *testing.B) {
	runFigure(b, 13, "Average", "multi_index", "avg%red")
}

func BenchmarkFig14AdaptivePartitioned(b *testing.B) {
	runFigure(b, 14, "Average", "adaptive_partitioned", "avg%impAMAT")
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

var paperLayout = addr.MustLayout(32, 1024, 32)

// BenchmarkAblationOddMultiplier sweeps the paper's recommended
// multipliers on the fft trace, reporting each one's miss rate.
func BenchmarkAblationOddMultiplier(b *testing.B) {
	tr := workload.MustLookup("fft").Generate(1, 100_000)
	for _, p := range indexing.RecommendedMultipliers {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				c := mustCache(cache.Config{
					Layout: paperLayout, Ways: 1,
					Index:         indexing.MustOddMultiplier(paperLayout, p),
					WriteAllocate: true,
				})
				mr = cache.Run(c, tr).MissRate()
			}
			b.ReportMetric(mr, "missrate")
		})
	}
}

// BenchmarkAblationPrimeChoice compares the largest prime ≤ S against
// smaller primes (more fragmentation).
func BenchmarkAblationPrimeChoice(b *testing.B) {
	tr := workload.MustLookup("sha").Generate(1, 100_000)
	for _, p := range []int{1021, 1013, 997, 509} {
		p := p
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pm, err := indexing.NewPrimeModuloWith(paperLayout, p)
			if err != nil {
				b.Fatal(err)
			}
			var mr float64
			for i := 0; i < b.N; i++ {
				c := mustCache(cache.Config{Layout: paperLayout, Ways: 1, Index: pm, WriteAllocate: true})
				mr = cache.Run(c, tr).MissRate()
			}
			b.ReportMetric(mr, "missrate")
		})
	}
}

// BenchmarkAblationGivargisBlockSize reproduces the paper's observation
// that Givargis indexing behaves better on narrow lines (8 B) than wide
// ones (32/64 B): the reported metric is the % miss reduction vs the
// conventional baseline at the same block size.
func BenchmarkAblationGivargisBlockSize(b *testing.B) {
	for _, blockBytes := range []int{8, 32, 64} {
		blockBytes := blockBytes
		b.Run(fmt.Sprintf("block%dB", blockBytes), func(b *testing.B) {
			layout := addr.MustLayout(blockBytes, 32*1024/blockBytes, 32)
			tr := workload.MustLookup("fft").Generate(1, 100_000)
			var reduction float64
			for i := 0; i < b.N; i++ {
				g, err := indexing.NewGivargis(tr, layout, indexing.GivargisConfig{})
				if err != nil {
					b.Fatal(err)
				}
				base := mustCache(cache.Config{Layout: layout, Ways: 1, WriteAllocate: true})
				giv := mustCache(cache.Config{Layout: layout, Ways: 1, Index: g, WriteAllocate: true})
				bc := cache.Run(base, tr)
				gc := cache.Run(giv, tr)
				reduction = stats.PercentReduction(bc.MissRate(), gc.MissRate())
			}
			b.ReportMetric(reduction, "%reduction")
		})
	}
}

// BenchmarkAblationSHTOUTSizing sweeps the adaptive cache's table sizes
// around the paper's 3/8 and 4/16 defaults.
func BenchmarkAblationSHTOUTSizing(b *testing.B) {
	tr := workload.MustLookup("rijndael").Generate(1, 100_000)
	for _, f := range []struct {
		name     string
		sht, out int
	}{
		{"paper_3-8_4-16", 1024 * 3 / 8, 1024 * 4 / 16},
		{"small_1-8_1-16", 1024 / 8, 1024 / 16},
		{"large_1-1_1-2", 1024, 512},
	} {
		f := f
		b.Run(f.name, func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				a := mustAdaptiveCache(paperLayout, nil,
					assoc.AdaptiveConfig{SHTEntries: f.sht, OUTEntries: f.out})
				mr = cache.Run(a, tr).MissRate()
			}
			b.ReportMetric(mr, "missrate")
		})
	}
}

// BenchmarkAblationBCacheReplacement compares replacement policies inside
// the B-cache clusters (the paper uses LRU).
func BenchmarkAblationBCacheReplacement(b *testing.B) {
	tr := workload.MustLookup("fft").Generate(1, 100_000)
	for _, pol := range []cache.Policy{cache.LRU{}, cache.FIFO{}, cache.Random{Seed: 1}, cache.PLRU{}} {
		pol := pol
		b.Run(pol.Name(), func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				bc := mustBCache(paperLayout, assoc.BCacheConfig{Replacement: pol})
				mr = cache.Run(bc, tr).MissRate()
			}
			b.ReportMetric(mr, "missrate")
		})
	}
}

// BenchmarkAblationInterleaving compares round-robin and stochastic SMT
// interleaving for the Figure-13 setup.
func BenchmarkAblationInterleaving(b *testing.B) {
	gen := func() (trace.BatchReader, trace.BatchReader) {
		return workload.MustLookup("fft").Generate(1, 50_000).NewBatchReader(),
			workload.MustLookup("susan").Generate(2, 50_000).NewBatchReader()
	}
	run := func(b *testing.B, mk func() trace.BatchReader) {
		var mr float64
		for i := 0; i < b.N; i++ {
			tr, err := trace.CollectBatch(mk(), 0)
			if err != nil {
				b.Fatal(err)
			}
			c := mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
			mr = cache.Run(c, tr).MissRate()
		}
		b.ReportMetric(mr, "missrate")
	}
	b.Run("round_robin", func(b *testing.B) {
		run(b, func() trace.BatchReader { a, c := gen(); return trace.RoundRobinBatch(a, c) })
	})
	b.Run("stochastic", func(b *testing.B) {
		run(b, func() trace.BatchReader { a, c := gen(); return trace.StochasticBatch(rng.New(7), a, c) })
	})
}

// BenchmarkAblationRehashBit contrasts column-associative (rehash bit
// avoids fruitless second probes) against plain hash-rehash
// pseudo-associativity, reporting the extra probes per access.
func BenchmarkAblationRehashBit(b *testing.B) {
	tr := workload.MustLookup("rijndael").Generate(1, 100_000)
	b.Run("column_associative", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			c := mustColumnAssociative(paperLayout, nil)
			ctr := cache.Run(c, tr)
			probes = float64(ctr.SecondaryProbeMisses) / float64(ctr.Accesses)
		}
		b.ReportMetric(probes, "probeMiss/acc")
	})
	b.Run("pseudo_associative", func(b *testing.B) {
		var probes float64
		for i := 0; i < b.N; i++ {
			c, err := assoc.NewPseudoAssociative(paperLayout, nil)
			if err != nil {
				b.Fatal(err)
			}
			ctr := cache.Run(c, tr)
			probes = float64(ctr.SecondaryProbeMisses) / float64(ctr.Accesses)
		}
		b.ReportMetric(probes, "probeMiss/acc")
	})
}

// BenchmarkPatelSearch exercises the exhaustive optimal-index search the
// paper declined to evaluate, on a deliberately tiny configuration.
func BenchmarkPatelSearch(b *testing.B) {
	tiny := addr.MustLayout(8, 8, 16)
	tr := workload.MustLookup("bitcount").Generate(1, 2_000)
	b.ResetTimer()
	var cost uint64
	for i := 0; i < b.N; i++ {
		res, err := indexing.SearchPatel(tr, tiny, indexing.PatelConfig{
			CandidateBits: []uint{3, 4, 5, 6, 7, 8, 9, 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Cost
	}
	b.ReportMetric(float64(cost), "optMisses")
}

// --- Microbenchmarks of the hot paths -----------------------------------

// BenchmarkCacheAccess measures raw simulation throughput per scheme.
func BenchmarkCacheAccess(b *testing.B) {
	tr := workload.MustLookup("dijkstra").Generate(1, 65_536)
	models := []struct {
		name  string
		build func() cache.Model
	}{
		{"direct_mapped", func() cache.Model {
			return mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
		}},
		{"xor", func() cache.Model {
			return mustCache(cache.Config{Layout: paperLayout, Ways: 1, Index: indexing.NewXOR(paperLayout), WriteAllocate: true})
		}},
		{"eight_way_lru", func() cache.Model {
			return mustCache(cache.Config{Layout: addr.MustLayout(32, 128, 32), Ways: 8, WriteAllocate: true})
		}},
		{"column_associative", func() cache.Model { return mustColumnAssociative(paperLayout, nil) }},
		{"adaptive", func() cache.Model { return mustAdaptiveCache(paperLayout, nil, assoc.AdaptiveConfig{}) }},
		{"b_cache", func() cache.Model { return mustBCache(paperLayout, assoc.BCacheConfig{}) }},
	}
	for _, m := range models {
		m := m
		b.Run(m.name, func(b *testing.B) {
			model := m.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.Access(tr[i%len(tr)])
			}
		})
	}
}

// BenchmarkIndexFunc measures the pure index computations.
func BenchmarkIndexFunc(b *testing.B) {
	tr := workload.MustLookup("fft").Generate(1, 65_536)
	prof := tr
	giv, err := indexing.NewGivargis(prof, paperLayout, indexing.GivargisConfig{})
	if err != nil {
		b.Fatal(err)
	}
	funcs := []indexing.Func{
		indexing.NewModulo(paperLayout),
		indexing.NewXOR(paperLayout),
		indexing.MustOddMultiplier(paperLayout, 21),
		indexing.NewPrimeModulo(paperLayout),
		giv,
	}
	for _, f := range funcs {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += f.Index(tr[i%len(tr)].Addr)
			}
			_ = sink
		})
	}
}

// BenchmarkWorkloadGen measures trace synthesis throughput in both shapes:
// "materialized" appends every access to a slice (the kernels' direct
// output), "stream" pulls the same kernel through the batched generator
// pump into a reused buffer.  The stream pays the pump's channel handoff
// but allocates O(batch) instead of O(len); the gap between the two is the
// streaming pipeline's generation overhead.
func BenchmarkWorkloadGen(b *testing.B) {
	for _, name := range []string{"fft", "qsort", "mcf", "sjeng"} {
		name := name
		spec := workload.MustLookup(name)
		b.Run(name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec.Generate(uint64(i+1), 10_000)
			}
		})
		b.Run(name+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]trace.Access, trace.DefaultBatch)
			for i := 0; i < b.N; i++ {
				r := spec.Stream(uint64(i+1), 10_000)
				for {
					n, err := r.ReadBatch(buf)
					if n == 0 {
						if !errors.Is(err, io.EOF) {
							b.Fatal(err)
						}
						break
					}
				}
			}
		})
	}
}

// BenchmarkReplayBatched measures the replay hot loop over a materialized
// trace: RunBatched with its AccessBatch devirtualization.  The headline
// accesses/s metric is what EXPERIMENTS.md quotes for the streaming
// refactor.
func BenchmarkReplayBatched(b *testing.B) {
	tr := workload.MustLookup("dijkstra").Generate(1, 262_144)
	model := mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
	buf := make([]trace.Access, trace.DefaultBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.RunBatched(model, tr.NewBatchReader(), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(tr))/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkReplayStreamed is the end-to-end streaming cell: generator pump
// → batched replay, nothing materialized — the shape core.Grid runs per
// cell after the refactor.
func BenchmarkReplayStreamed(b *testing.B) {
	spec := workload.MustLookup("dijkstra")
	model := mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
	buf := make([]trace.Access, trace.DefaultBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.RunBatched(model, spec.Stream(1, 262_144), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*262_144/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkTraceCompile vs BenchmarkTraceDecode splits the compiled-trace
// pipeline into its one-time and per-replay halves: Compile pays one
// generator pass plus the delta encode, Decode is the refill loop every
// later pass runs instead of the generator pump.  BenchmarkReplayCompiled
// closes the loop — decode feeding the batched cache model, the per-cell
// shape of a warm compiled grid (compare BenchmarkReplayStreamed, the
// same cell fed by the generator).
func BenchmarkTraceCompile(b *testing.B) {
	spec := workload.MustLookup("dijkstra")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Compile(spec.Stream(1, 262_144), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*262_144/b.Elapsed().Seconds(), "accesses/s")
}

func BenchmarkTraceDecode(b *testing.B) {
	ct, err := trace.Compile(workload.MustLookup("dijkstra").Stream(1, 262_144), 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Access, trace.DefaultBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ct.Reader()
		for {
			n, err := r.ReadBatch(buf)
			if n == 0 {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
		}
	}
	b.ReportMetric(float64(b.N)*float64(ct.Len())/b.Elapsed().Seconds(), "accesses/s")
}

func BenchmarkReplayCompiled(b *testing.B) {
	ct, err := trace.Compile(workload.MustLookup("dijkstra").Stream(1, 262_144), 0)
	if err != nil {
		b.Fatal(err)
	}
	model := mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
	buf := make([]trace.Access, trace.DefaultBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.RunBatched(model, ct.Reader(), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(ct.Len())/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkGridFanout is the grid engine's headline benchmark: the full
// scheme roster over three MiBench workloads at the paper's default trace
// length, with compiled-trace replay (every pass after the first decodes
// the cached artifact instead of re-running the generator pump).  The
// numbers land in BENCH_grid.json via `make bench-grid`, which gates both
// the allocation budget and the accesses/s floor.
//
// The accesses/s metric counts SIMULATED accesses — every access each
// scheme's model replays (TraceLength x benches x schemes per op) — not
// generated ones, because the grid's unit of work is a cell, and the
// fan-out engine's whole point is that |schemes| cells share one decoded
// stream.  The `-minmetric BenchmarkGridFanout:accesses/s=...` floor in
// the Makefile is on this basis.
func gridBenchInputs() (core.Config, []string, []string) {
	return core.Default(), core.SchemeNames(""), []string{"fft", "sha", "dijkstra"}
}

func BenchmarkGridFanout(b *testing.B) {
	cfg, schemes, benches := gridBenchInputs()
	cfg.Traces = core.NewMemTraceCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Grid(context.Background(), cfg, schemes, benches); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(cfg.TraceLength*len(benches)*len(schemes))/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkGridParallelism measures the experiment runner's scaling with
// worker count (the repository's actual HPC surface: figure grids fan out
// (scheme × benchmark) simulations across cores).
func BenchmarkGridParallelism(b *testing.B) {
	schemes := []string{"baseline", "xor", "odd_multiplier", "column_associative", "adaptive", "b_cache"}
	benches := []string{"fft", "sha", "dijkstra", "rijndael"}
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(fmt.Sprintf("workers%d", par), func(b *testing.B) {
			cfg := benchCfg()
			cfg.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := core.Grid(context.Background(), cfg, schemes, benches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHierarchy measures the full two-level pipeline.
func BenchmarkHierarchy(b *testing.B) {
	tr := workload.MustLookup("rijndael").Generate(1, 65_536)
	l1 := mustCache(cache.Config{Layout: paperLayout, Ways: 1, WriteAllocate: true})
	l2 := mustCache(cache.Config{Layout: paperLayout, Ways: 8, WriteAllocate: true})
	h := mustHier(hier.Config{L1D: l1, L2: l2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(tr[i%len(tr)])
	}
}
