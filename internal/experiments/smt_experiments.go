package experiments

import (
	"context"
	"maps"
	"sync"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// mixTable replays each thread mix as one interleaved workload — thread i
// runs mix[i] with seed Seed+i — through the (base, alt) scheme pair built
// for the mix's thread count, and tabulates metric of alt against base in
// mix order.  Mixes of k threads run as one grid at k·TraceLength, so
// every thread contributes TraceLength accesses.
func mixTable(ctx context.Context, cfg core.Config, title string, mixes [][]string,
	pair func(threads int) (base, alt core.Scheme), metric rowMetric) (*report.Table, error) {
	labels := make([]string, len(mixes))
	byThreads := map[int][]workload.Spec{}
	var counts []int // thread counts, in order of first appearance
	for i, mix := range mixes {
		parts := make([]workload.Spec, len(mix))
		for j, name := range mix {
			spec, err := workload.Lookup(name)
			if err != nil {
				return nil, err
			}
			parts[j] = spec
		}
		labels[i] = MixLabel(mix)
		spec, err := workload.NewInterleaveSpec(labels[i], parts)
		if err != nil {
			return nil, err
		}
		if _, seen := byThreads[len(mix)]; !seen {
			counts = append(counts, len(mix))
		}
		byThreads[len(mix)] = append(byThreads[len(mix)], spec)
	}
	// The groups' grids run concurrently, each bounded by Parallelism (so
	// up to one Parallelism per thread count in all): in sequence, the
	// workers would idle at the end of each group until its slowest mix
	// finished.
	grids := make([]map[string]map[string]core.Result, len(counts))
	errs := make([]error, len(counts))
	var base, alt core.Scheme
	var wg sync.WaitGroup
	for i, k := range counts {
		base, alt = pair(k)
		kcfg := cfg
		kcfg.TraceLength = k * cfg.Canonical().TraceLength
		schemes, benches := []core.Scheme{base, alt}, byThreads[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			grids[i], errs[i] = core.GridOf(ctx, kcfg, schemes, benches)
		}()
	}
	wg.Wait()
	grid := make(map[string]map[string]core.Result, len(mixes))
	for i, rows := range grids {
		if errs[i] != nil {
			return nil, errs[i]
		}
		maps.Copy(grid, rows)
	}
	return tabulate(title, "thread_mix", labels, grid, base.Name, []string{alt.Name}, metric)
}

// sharedIndex is a shared direct-mapped L1 for threads threads where
// thread i places blocks with index(l, i).
func sharedIndex(name string, threads int, index func(l addr.Layout, thread int) (indexing.Func, error)) core.Scheme {
	return core.Scheme{Name: name, AMAT: registry.AMATSimple,
		Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
			funcs := make([]indexing.Func, threads)
			for i := range funcs {
				f, err := index(l, i)
				if err != nil {
					return nil, err
				}
				funcs[i] = f
			}
			return smt.NewSharedIndexCache(l, funcs)
		}}
}

// Figure13 compares a shared direct-mapped L1 where all threads use
// conventional indexing against one where each thread uses a different
// odd multiplier (9, 21, 31, 61 — the paper's recommended set).
func Figure13(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return mixTable(ctx, cfg,
		"Figure 13: % reduction in miss rate with per-thread odd-multiplier indexing",
		ThreadMixes13, func(threads int) (core.Scheme, core.Scheme) {
			return sharedIndex("baseline", threads, func(l addr.Layout, _ int) (indexing.Func, error) {
					return indexing.NewModulo(l), nil
				}),
				sharedIndex("multi_index", threads, func(l addr.Layout, i int) (indexing.Func, error) {
					return indexing.NewOddMultiplier(l, indexing.RecommendedMultipliers[i%len(indexing.RecommendedMultipliers)])
				})
		}, core.MissReductionVsBaseline)
}

// Figure14 compares the statically partitioned shared L1 against the
// adaptive partitioned scheme (partitions + shared SHT/OUT), reporting
// the % improvement in AMAT.  The partitioned baseline uses the textbook
// AMAT; the adaptive scheme uses Eq. 8.
func Figure14(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return mixTable(ctx, cfg,
		"Figure 14: % improvement in AMAT, adaptive partitioned scheme",
		ThreadMixes14, func(threads int) (core.Scheme, core.Scheme) {
			return core.Scheme{Name: "partitioned", AMAT: registry.AMATSimple,
					Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
						return smt.NewPartitionedCache(l, threads)
					}},
				core.Scheme{Name: "adaptive_partitioned", AMAT: hier.AMATAdaptive,
					Build: func(l addr.Layout, _ trace.StreamFunc) (cache.Model, error) {
						return smt.NewAdaptivePartitioned(l, threads, assoc.AdaptiveConfig{})
					}}
		}, core.AMATReductionVsBaseline)
}
