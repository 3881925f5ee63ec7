package experiments

import (
	"context"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/workload"

	"cacheuniformity/internal/report"
)

// AdaptiveHybrids evaluates the paper's stated-but-unevaluated
// exploration: non-conventional index functions as the primary placement
// of the *adaptive* group-associative cache, relative to the plain
// adaptive cache — the Figure-8 experiment transplanted from the
// column-associative cache.  Run via `cmd/experiments -hybrids`.
func AdaptiveHybrids(ctx context.Context, cfg core.Config) (*report.Table, error) {
	return reductionTable(ctx, cfg,
		"Adaptive-cache hybrids: % reduction in miss rate vs plain adaptive (SPEC 2006)",
		core.AdaptiveHybridSchemes, workload.SPECOrder, "adaptive",
		core.MissReductionVsBaseline)
}
