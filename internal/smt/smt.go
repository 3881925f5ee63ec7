// Package smt models the paper's SMT-like multithreaded experiments
// (Section IV-E, Figures 13 and 14): multiple hardware threads share one
// L1, and the cache may apply a different index function per thread
// (Figure 13) or statically partition its sets per thread while sharing
// Peir-style SHT/OUT tables so one thread's displaced blocks can occupy
// another's cold sets (Figure 14, the "adaptive partitioned" scheme).
//
// The paper uses M-Sim for these runs.  Our substitute replays one shared
// reference stream whose accesses carry their hardware thread id, which
// preserves everything the studied schemes can see: which thread issues
// which address in which order.  The models here do no interleaving
// themselves; workload.NewInterleaveSpec (the registry's interleave
// workload kind) builds that stream from per-thread traces.
package smt

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// SharedCache is a direct-mapped, write-back, write-allocate L1 shared by
// several hardware threads.  It differs from a plain direct-mapped cache
// only in its placement rule, which sees the access's thread id as well as
// its address.
//
// Threads in these experiments run disjoint address spaces, so a block is
// only ever looked up under its owner's placement; the full block-address
// tag keeps correctness even if placements disagree.
type SharedCache struct {
	cache.DirectMapped
	name   string
	layout addr.Layout
	place  func(trace.Access) int
	setBuf []int32
}

func newSharedCache(l addr.Layout, name string, place func(trace.Access) int) *SharedCache {
	return &SharedCache{
		DirectMapped: cache.NewDirectMapped(l.Sets()),
		name:         name,
		layout:       l,
		place:        place,
		setBuf:       make([]int32, trace.DefaultBatch),
	}
}

// NewSharedIndexCache builds a shared cache where each thread uses its own
// index function — the paper's "multiple indexing schemes within a single
// cache system" (Figure 5, evaluated in Figure 13 with distinct odd
// multipliers per thread).  funcs[i] is thread i's function; threads
// beyond the slice use funcs[0].  funcs must be non-empty, and every
// function's range must fit the layout.
func NewSharedIndexCache(l addr.Layout, funcs []indexing.Func) (*SharedCache, error) {
	if len(funcs) == 0 {
		return nil, fmt.Errorf("smt: need at least one index function")
	}
	name := "shared"
	for _, f := range funcs {
		if f == nil {
			return nil, fmt.Errorf("smt: nil index function")
		}
		if f.Sets() > l.Sets() {
			return nil, fmt.Errorf("smt: index %s reaches %d sets, layout has %d", f.Name(), f.Sets(), l.Sets())
		}
		name += "/" + f.Name()
	}
	return newSharedCache(l, name, func(a trace.Access) int {
		if int(a.Thread) < len(funcs) {
			return funcs[a.Thread].Index(a.Addr)
		}
		return funcs[0].Index(a.Addr)
	}), nil
}

// NewPartitionedCache builds a shared cache whose sets are split evenly
// among threads: thread i may only use sets [i·S/T, (i+1)·S/T), and
// thread ids wrap modulo threads.  This is the paper's baseline for
// Figure 14 ("we divided the cache equally among the two threads") —
// thread isolation without adaptivity.  threads must divide the set
// count.
func NewPartitionedCache(l addr.Layout, threads int) (*SharedCache, error) {
	place, err := partitionRule(l, threads)
	if err != nil {
		return nil, err
	}
	return newSharedCache(l, fmt.Sprintf("partitioned/%d", threads), place), nil
}

// partitionRule returns the partitioned placement: the conventional index
// folded into the thread's share of the sets.
func partitionRule(l addr.Layout, threads int) (func(trace.Access) int, error) {
	if threads <= 0 || l.Sets()%threads != 0 {
		return nil, fmt.Errorf("smt: %d threads must evenly divide %d sets", threads, l.Sets())
	}
	partSets := l.Sets() / threads
	return func(a trace.Access) int {
		t := int(a.Thread) % threads
		return t*partSets + int(l.Index(a.Addr))%partSets
	}, nil
}

// Name implements cache.Model.
func (s *SharedCache) Name() string { return s.name }

// Sets implements cache.Model.
func (s *SharedCache) Sets() int { return s.layout.Sets() }

// Access implements cache.Model.
func (s *SharedCache) Access(a trace.Access) cache.AccessResult {
	return s.DirectMapped.Access(s.place(a), a, s.layout.OffsetBits)
}

// AccessBatch implements cache.BatchAccessor: the placement rule fills
// the set buffer, then the store replays the chunk.
//
//lint:hotpath SMT replay inner loop
func (s *SharedCache) AccessBatch(batch []trace.Access) {
	for len(batch) > 0 {
		n := min(len(batch), len(s.setBuf))
		for i, a := range batch[:n] {
			s.setBuf[i] = int32(s.place(a))
		}
		s.Replay(batch[:n], s.setBuf[:n], s.layout.OffsetBits)
		batch = batch[n:]
	}
}

// NewAdaptivePartitioned builds the paper's Figure-14 scheme: the cache is
// statically partitioned per thread, but Peir's SHT and OUT tables span
// the whole cache, so a protected victim from one thread's partition can
// shelter in a disposable line of another's — "increasing the cache sizes
// available to each thread adaptively".
func NewAdaptivePartitioned(l addr.Layout, threads int, cfg assoc.AdaptiveConfig) (*assoc.AdaptiveCache, error) {
	place, err := partitionRule(l, threads)
	if err != nil {
		return nil, err
	}
	return assoc.NewAdaptiveCacheIndexer(l, fmt.Sprintf("adaptive_partitioned/%d", threads), place, cfg)
}
