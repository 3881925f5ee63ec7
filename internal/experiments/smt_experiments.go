package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// mixModels builds the two models one thread mix is compared on.
type mixModels func(mix []string) (base, alt cache.Model, err error)

// replayMixes generates each thread mix's interleaved stream once and
// broadcasts it into the mix's two models, on min(Parallelism, mixes)
// workers.  counters[i] holds mix i's (base, alt) counters.  On failure
// the error returned is the one of the lowest-indexed failing mix, so it
// does not depend on the worker count; cancellation stops the run within
// one batch and returns the context's error.
func replayMixes(ctx context.Context, cfg core.Config, mixes [][]string, build mixModels) (counters [][2]cache.Counters, err error) {
	canon := cfg.Canonical()
	counters = make([][2]cache.Counters, len(mixes))
	errs := make([]error, len(mixes))
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(mixes))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]trace.Access, trace.DefaultBatch) // reused across this worker's mixes
			for i := range next {
				counters[i], errs[i] = replayMix(ctx, canon, mixes[i], build, buf)
			}
		}()
	}
	// As in core.GridOf: once the run is cancelled, workers may already
	// have returned, so a send must not block.
feed:
	for i := range mixes {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < len(mixes); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return counters, nil
}

// replayMix builds one mix's models and replays its stream into both.
// The stream interleaves the mix's benchmarks round-robin, one hardware
// thread per benchmark, with per-thread seeds derived from cfg.Seed;
// every thread contributes cfg.TraceLength accesses.
func replayMix(ctx context.Context, cfg core.Config, mix []string, build mixModels, buf []trace.Access) ([2]cache.Counters, error) {
	var out [2]cache.Counters
	specs := make([]workload.Spec, len(mix))
	for i, name := range mix {
		spec, err := workload.Lookup(name)
		if err != nil {
			return out, err
		}
		specs[i] = spec
	}
	base, alt, err := build(mix)
	if err != nil {
		return out, err
	}
	rs := make([]trace.BatchReader, len(specs))
	for i, s := range specs {
		rs[i] = s.StreamCtx(ctx, cfg.Seed+uint64(i), cfg.TraceLength)
	}
	_, serrs, err := trace.Broadcast(ctx, trace.RoundRobinBatch(rs...), buf, cache.NewSink(base), cache.NewSink(alt))
	if err != nil {
		return out, err
	}
	for _, serr := range serrs {
		if serr != nil {
			return out, serr
		}
	}
	return [2]cache.Counters{base.Counters(), alt.Counters()}, nil
}

// Figure13 compares a shared direct-mapped L1 where all threads use
// conventional indexing against one where each thread uses a different
// odd multiplier (9, 21, 31, 61 — the paper's recommended set).
func Figure13(ctx context.Context, cfg core.Config) (*report.Table, error) {
	layout := cfg.Canonical().Layout
	counters, err := replayMixes(ctx, cfg, ThreadMixes13, func(mix []string) (cache.Model, cache.Model, error) {
		baseFuncs := make([]indexing.Func, len(mix))
		mixedFuncs := make([]indexing.Func, len(mix))
		for i := range mix {
			baseFuncs[i] = indexing.NewModulo(layout)
			p := indexing.RecommendedMultipliers[i%len(indexing.RecommendedMultipliers)]
			om, err := indexing.NewOddMultiplier(layout, p)
			if err != nil {
				return nil, nil, err
			}
			mixedFuncs[i] = om
		}
		base, err := smt.NewSharedIndexCache(layout, baseFuncs)
		if err != nil {
			return nil, nil, err
		}
		mixed, err := smt.NewSharedIndexCache(layout, mixedFuncs)
		if err != nil {
			return nil, nil, err
		}
		return base, mixed, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 13: % reduction in miss rate with per-thread odd-multiplier indexing",
		"thread_mix", []string{"multi_index"})
	for i, mix := range ThreadMixes13 {
		tbl.MustAddRow(MixLabel(mix), []float64{stats.PercentReduction(counters[i][0].MissRate(), counters[i][1].MissRate())})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}

// Figure14 compares the statically partitioned shared L1 against the
// adaptive partitioned scheme (partitions + shared SHT/OUT), reporting
// the % improvement in AMAT.  The partitioned baseline uses the textbook
// AMAT; the adaptive scheme uses Eq. 8.
func Figure14(ctx context.Context, cfg core.Config) (*report.Table, error) {
	canon := cfg.Canonical()
	layout := canon.Layout
	counters, err := replayMixes(ctx, cfg, ThreadMixes14, func(mix []string) (cache.Model, cache.Model, error) {
		threads := len(mix)
		if layout.Sets()%threads != 0 {
			return nil, nil, fmt.Errorf("experiments: %d threads do not divide %d sets", threads, layout.Sets())
		}
		part, err := smt.NewPartitionedCache(layout, threads)
		if err != nil {
			return nil, nil, err
		}
		ap, err := smt.NewAdaptivePartitioned(layout, threads, assoc.AdaptiveConfig{})
		if err != nil {
			return nil, nil, err
		}
		return part, ap, nil
	})
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 14: % improvement in AMAT, adaptive partitioned scheme",
		"thread_mix", []string{"adaptive_partitioned"})
	for i, mix := range ThreadMixes14 {
		baseAMAT := hier.AMATSimple(counters[i][0], hier.DefaultLatencies, canon.MissPenalty)
		adaptAMAT := hier.AMATAdaptive(counters[i][1], canon.MissPenalty)
		tbl.MustAddRow(MixLabel(mix), []float64{stats.PercentReduction(baseAMAT, adaptAMAT)})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}
