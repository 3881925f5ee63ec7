package core

import (
	"context"
	"fmt"
	"sort"
)

// Selection is the outcome of the paper's Figure-5 proposal: applications
// are profiled off-line, and the indexing scheme that yields the fewest
// misses is programmed into the cache before the application runs (the
// conventional index is the default).
type Selection struct {
	Benchmark string
	// Scheme is the winner among baseline + the Section-II schemes.
	Scheme string
	// ProfileMissRate is the winner's miss rate on the profiling trace.
	ProfileMissRate float64
	// Candidates maps every evaluated scheme to its profiling miss rate.
	Candidates map[string]float64
}

// SelectIndexing profiles each benchmark (with cfg.Seed and
// cfg.TraceLength as the profiling run) and picks its best indexing
// scheme, returning one Selection per benchmark in the order given.  All
// benchmarks are profiled in one Grid over baseline + IndexingSchemes, so
// the work parallelises over benchmarks and each trace is replayed once
// for every candidate.  Ties break toward the baseline, then
// alphabetically, so a scheme must strictly beat conventional indexing to
// be selected — matching the paper's "the default will use conventional
// indexes".  An unknown benchmark is rejected before any work starts; a
// failed cell reports the first failure in benchmark, then scheme-name
// order.
func SelectIndexing(ctx context.Context, cfg Config, benches ...string) ([]Selection, error) {
	candidates := append([]string{"baseline"}, IndexingSchemes...)
	grid, err := Grid(ctx, cfg, candidates, benches)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), candidates...)
	sort.Strings(names)
	sels := make([]Selection, len(benches))
	for bi, bench := range benches {
		row := grid[bench]
		sel := Selection{Benchmark: bench, Candidates: make(map[string]float64, len(names))}
		for _, name := range names {
			r := row[name]
			if r.Err != nil {
				return nil, fmt.Errorf("core: select %s/%s: %w", bench, name, r.Err)
			}
			sel.Candidates[name] = r.MissRate
		}
		sel.Scheme = "baseline"
		sel.ProfileMissRate = sel.Candidates["baseline"]
		for _, name := range names {
			if sel.Candidates[name] < sel.ProfileMissRate {
				sel.Scheme = name
				sel.ProfileMissRate = sel.Candidates[name]
			}
		}
		sels[bi] = sel
	}
	return sels, nil
}
