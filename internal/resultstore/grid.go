package resultstore

import (
	"context"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/workload"
)

// Grid evaluates a scheme × benchmark grid through the store: cached
// cells are served from the tiers, cells already being computed by
// concurrent requests are joined, and only the remainder is simulated.
// Missing cells are grouped per benchmark and handed to the engine one
// benchmark at a time, so the generate-once fan-out engine still shares
// each benchmark's stream and indexing profile across all of that
// benchmark's missing schemes; benchmarks run concurrently under
// cfg.Parallelism.  Names resolve to their canonical registry
// declarations, so this addresses the same cells as GridDecls over the
// equivalent declarations.
//
// The contract matches core.Grid: every requested cell is present in the
// returned map, cancellation yields partial results with unreached cells
// carrying the context's error, and the returned error is ctx.Err().
func (s *Store) Grid(ctx context.Context, cfg core.Config, schemeNames, benchNames []string) (map[string]map[string]core.Result, error) {
	for _, n := range schemeNames {
		if _, err := core.SchemeByName(n); err != nil {
			return nil, err
		}
	}
	for _, n := range benchNames {
		if _, err := workload.Lookup(n); err != nil {
			return nil, err
		}
	}
	schemeDecls := make([]registry.Decl, len(schemeNames))
	for i, n := range schemeNames {
		schemeDecls[i] = registry.Decl{Name: n}
	}
	benchDecls := make([]registry.Decl, len(benchNames))
	for i, n := range benchNames {
		benchDecls[i] = registry.Decl{Name: n}
	}
	return s.GridDecls(ctx, cfg, schemeDecls, benchDecls)
}

// MemoGrid implements core.Memoizer: core.Grid with cfg.Memo set lands
// here.
func (s *Store) MemoGrid(ctx context.Context, cfg core.Config, schemeNames, benchNames []string) (map[string]map[string]core.Result, error) {
	return s.Grid(ctx, cfg, schemeNames, benchNames)
}

// interface check: the store is installable as Config.Memo.
var _ core.Memoizer = (*Store)(nil)
