package smt

import (
	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
)

// Test fixtures.  The production constructors return errors so callers can
// validate configs; tests build known-good fixtures and want one-liners, so
// these panic on the (impossible) error instead.

func mustSharedIndexCache(l addr.Layout, funcs []indexing.Func) *SharedCache {
	s, err := NewSharedIndexCache(l, funcs)
	if err != nil {
		panic(err)
	}
	return s
}

func mustPartitionedCache(l addr.Layout, threads int) *SharedCache {
	p, err := NewPartitionedCache(l, threads)
	if err != nil {
		panic(err)
	}
	return p
}
