package cacheuniformity

import (
	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/smt"
)

// Test fixtures.  The production constructors return errors so callers can
// validate configs; tests and benchmarks build known-good fixtures and want
// one-liners, so these panic on the (impossible) error instead.

func mustCache(cfg cache.Config) *cache.Cache {
	c, err := cache.New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func mustHier(cfg hier.Config) *hier.Hierarchy {
	h, err := hier.New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

func mustAdaptiveCache(l addr.Layout, idx indexing.Func, cfg assoc.AdaptiveConfig) *assoc.AdaptiveCache {
	a, err := assoc.NewAdaptiveCache(l, idx, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func mustBCache(l addr.Layout, cfg assoc.BCacheConfig) *assoc.BCache {
	b, err := assoc.NewBCache(l, cfg)
	if err != nil {
		panic(err)
	}
	return b
}

func mustColumnAssociative(l addr.Layout, idx indexing.Func) *assoc.ColumnAssociative {
	c, err := assoc.NewColumnAssociative(l, idx)
	if err != nil {
		panic(err)
	}
	return c
}

func mustSharedIndexCache(l addr.Layout, funcs []indexing.Func) *smt.SharedCache {
	s, err := smt.NewSharedIndexCache(l, funcs)
	if err != nil {
		panic(err)
	}
	return s
}
