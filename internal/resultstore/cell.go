package resultstore

import (
	"context"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/workload"
)

// Origin reports which tier satisfied a request; the server surfaces it
// per cell so clients (and the smoke test) can observe hit behaviour.
type Origin string

const (
	// OriginMemory: served by the in-memory LRU.
	OriginMemory Origin = "memory"
	// OriginDisk: read from a manifest (and promoted to memory).
	OriginDisk Origin = "disk"
	// OriginComputed: this request ran the simulation.
	OriginComputed Origin = "computed"
	// OriginInflight: collapsed onto a concurrent request's computation.
	OriginInflight Origin = "inflight"
)

// Served is one cell as the store served it: the result, the tier or
// path that supplied it, and the rendering slot of the memory-tier entry
// that holds it.  Rendering is nil when no entry holds the result — a
// failed result (never cached) or a store without a memory tier — except
// on a disk hit whose manifest carried a rendering, which comes in a
// slot of its own.
type Served struct {
	Result    core.Result
	Origin    Origin
	Rendering *Rendering
}

// lookup is PeekCell for a request this node serves: absence from both
// tiers counts as a miss.
func (s *Store) lookup(key string) (Served, bool) {
	c, ok := s.PeekCell(key)
	if !ok {
		s.misses.Add(1)
	}
	return c, ok
}

// Cell returns the result of one (config, scheme, benchmark) cell,
// simulating it only when neither tier holds it and no other request is
// already computing it.  The error return follows core.RunOne's
// contract: invalid names fail before any work; otherwise err mirrors
// res.Err (cancellation, injected faults, panics) and cached results are
// always err == nil because failures are never stored.  Names resolve to
// their canonical registry declarations, so this addresses the same cell
// as CellDecl over the equivalent declaration.
func (s *Store) Cell(ctx context.Context, cfg core.Config, schemeName, benchName string) (core.Result, Origin, error) {
	if _, err := core.SchemeByName(schemeName); err != nil {
		return core.Result{}, "", err
	}
	if _, err := workload.Lookup(benchName); err != nil {
		return core.Result{}, "", err
	}
	return s.CellDecl(ctx, cfg, registry.Decl{Name: schemeName}, registry.Decl{Name: benchName})
}

// MemoCell implements core.Memoizer: RunOne with cfg.Memo set lands
// here.
func (s *Store) MemoCell(ctx context.Context, cfg core.Config, schemeName, benchName string) (core.Result, error) {
	res, _, err := s.Cell(ctx, cfg, schemeName, benchName)
	return res, err
}
