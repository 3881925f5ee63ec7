// Multithreaded: reproduce the Figure-13 mechanism on one workload pair —
// two benchmarks share an L1 (round-robin interleaved, SMT style), first
// both with conventional indexing, then each with its own odd multiplier.
//
//	go run ./examples/multithreaded
package main

import (
	"fmt"
	"log"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

func main() {
	layout := addr.MustLayout(32, 1024, 32)

	// Two threads: fft and susan, interleaved one access per "cycle".
	fft := workload.MustLookup("fft").Generate(1, 250_000)
	susan := workload.MustLookup("susan").Generate(2, 250_000)
	mix, err := trace.CollectBatch(trace.RoundRobinBatch(fft.NewBatchReader(), susan.NewBatchReader()), 0)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: both threads index conventionally.
	base, err := smt.NewSharedIndexCache(layout, []indexing.Func{
		indexing.NewModulo(layout),
		indexing.NewModulo(layout),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Paper's proposal: a different odd multiplier per thread.
	mixed, err := smt.NewSharedIndexCache(layout, []indexing.Func{
		indexing.MustOddMultiplier(layout, 9),
		indexing.MustOddMultiplier(layout, 21),
	})
	if err != nil {
		log.Fatal(err)
	}

	bc := cache.Run(base, mix)
	mc := cache.Run(mixed, mix)

	fmt.Printf("shared L1, 2 threads (fft + susan), %d accesses\n", len(mix))
	fmt.Printf("conventional indexing for both: miss rate %.4f\n", bc.MissRate())
	fmt.Printf("odd multipliers 9 and 21:       miss rate %.4f\n", mc.MissRate())
	fmt.Printf("reduction: %.1f%%\n", 100*(bc.MissRate()-mc.MissRate())/bc.MissRate())
}
