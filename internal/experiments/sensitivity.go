package experiments

import (
	"context"
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// GeometrySweep backs the paper's opening claim — "increasing the size of
// caches or associativities may not lead to proportionally improved cache
// hit rates" — by replaying one benchmark through a ladder of cache sizes
// (direct mapped) and associativities (fixed 32 KiB capacity) and
// reporting the miss rate plus the misses retained relative to the
// baseline 32 KiB direct-mapped configuration.  A capacity-bound workload
// (e.g. patricia, mcf) retains most of its misses however large or
// associative the cache becomes; a conflict workload (fft, sha) collapses
// at the first doubling — non-uniformity, not geometry, is the lever.
func GeometrySweep(ctx context.Context, cfg core.Config, bench string) (*report.Table, error) {
	canon := cfg.Canonical()
	spec, err := workload.Lookup(bench)
	if err != nil {
		return nil, err
	}
	sf := spec.StreamFuncCtx(ctx, canon.Seed, canon.TraceLength)

	type point struct {
		label string
		build func() (cache.Model, error)
	}
	var points []point
	for _, kb := range []int{16, 32, 64, 128, 256} {
		kb := kb
		points = append(points, point{
			label: fmt.Sprintf("%dKB_direct_mapped", kb),
			build: func() (cache.Model, error) {
				l, err := addr.NewLayout(32, kb*1024/32, 32)
				if err != nil {
					return nil, err
				}
				return cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
			},
		})
	}
	for _, ways := range []int{2, 4, 8, 16} {
		ways := ways
		points = append(points, point{
			label: fmt.Sprintf("32KB_%dway", ways),
			build: func() (cache.Model, error) {
				l, err := addr.NewLayout(32, 1024/ways, 32)
				if err != nil {
					return nil, err
				}
				return cache.New(cache.Config{Layout: l, Ways: ways, WriteAllocate: true})
			},
		})
	}
	points = append(points, point{
		label: "32KB_fully_associative",
		build: func() (cache.Model, error) {
			l, err := addr.NewLayout(32, 1024, 32)
			if err != nil {
				return nil, err
			}
			return cache.NewFullyAssociative(l, 1024, cache.LRU{})
		},
	})

	// First pass: simulate all geometries; then scale by the 32 KiB DM
	// baseline.
	counters := make([]cache.Counters, len(points))
	var baselineMisses float64
	buf := make([]trace.Access, trace.DefaultBatch)
	for i, pt := range points {
		model, err := pt.build()
		if err != nil {
			return nil, err
		}
		counters[i], err = cache.RunBatched(model, sf(), buf)
		if err != nil {
			return nil, err
		}
		if pt.label == "32KB_direct_mapped" {
			baselineMisses = float64(counters[i].Misses)
		}
	}
	tbl := report.NewTable(
		fmt.Sprintf("Geometry sensitivity: %s (misses retained vs 32KB direct-mapped)", bench),
		"configuration", []string{"miss_rate", "misses_retained_pct"})
	for i, pt := range points {
		retained := 0.0
		if baselineMisses > 0 {
			retained = 100 * float64(counters[i].Misses) / baselineMisses
		}
		tbl.MustAddRow(pt.label, []float64{counters[i].MissRate(), retained})
	}
	return tbl, nil
}
