package cache_test

import (
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/workload"
)

// BenchmarkAblationBCacheReplacement compares replacement policies inside
// the B-cache clusters (the paper uses LRU).  It lives beside the test-only
// policies it compares.
func BenchmarkAblationBCacheReplacement(b *testing.B) {
	l := addr.MustLayout(32, 1024, 32)
	tr := workload.MustLookup("fft").Generate(1, 100_000)
	for _, pol := range []cache.Policy{cache.LRU{}, cache.FIFO{}, cache.Random{Seed: 1}, cache.PLRU{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			var mr float64
			for i := 0; i < b.N; i++ {
				bc, err := assoc.NewBCache(l, assoc.BCacheConfig{Replacement: pol})
				if err != nil {
					b.Fatal(err)
				}
				mr = cache.Run(bc, tr).MissRate()
			}
			b.ReportMetric(mr, "missrate")
		})
	}
}
