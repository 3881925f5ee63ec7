package core

import (
	"context"
	"sync"

	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// gridPerCell is the reference oracle for Grid: every (benchmark, scheme)
// cell regenerates the benchmark's stream and replays it through runCell
// on its own, with no shared profile and no broadcast.  The fan-out engine
// must match it byte for byte, including the partial-results contract on
// cancellation, so the equivalence and robustness tests run both.
func gridPerCell(ctx context.Context, cfg Config, schemes []Scheme, benches []workload.Spec) (map[string]map[string]Result, error) {
	cfg = cfg.normalized()

	type cell struct {
		bench, scheme int
	}
	cells := make(chan cell)
	results := make([][]Result, len(benches))
	for i := range results {
		results[i] = make([]Result, len(schemes))
	}
	var workers sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			buf := make([]trace.Access, trace.DefaultBatch) // reused across this worker's cells
			for c := range cells {
				b := benches[c.bench]
				sf, _ := streamFor(ctx, cfg, b)
				results[c.bench][c.scheme] = runCell(ctx, cfg, schemes[c.scheme], b.Name, sf, buf)
			}
		}()
	}
feed:
	for bi := range benches {
		for si := range schemes {
			select {
			case cells <- cell{bi, si}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(cells)
	workers.Wait()

	fillUnrun(ctx, schemes, benches, results)
	return gridResults(schemes, benches, results), ctx.Err()
}
