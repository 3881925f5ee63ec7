package dynamic

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

// PartitionBy selects how RepartitionCache assigns an access to a
// partition.
type PartitionBy string

const (
	// ByThread partitions by hardware thread (SMT sharing, Figure 14's
	// setting made dynamic).
	ByThread PartitionBy = "thread"
	// ByAccess partitions instruction fetches from data references — the
	// I/D split Graphite's evolveNaive balances.  Requires exactly two
	// partitions: 0 holds fetches, 1 holds loads and stores.
	ByAccess PartitionBy = "access"
)

// RepartitionConfig sizes a RepartitionCache; zero fields take the listed
// defaults.
type RepartitionConfig struct {
	// Partitions is the number of reference classes sharing the cache
	// (default 2).
	Partitions int
	// By assigns accesses to partitions (default ByThread).
	By PartitionBy
	// Interval is the miss count per adaptation window: once the window's
	// total misses reach it, the partition with the most misses in the
	// window grows by one granule at the expense of the one with the
	// fewest (default 4096).  This is Graphite's mutation_interval.
	Interval uint64
	// Granules is the number of equal set-range units the cache divides
	// into; re-partitioning moves one granule at a time and no partition
	// shrinks below one.  Must divide the set count and be divisible by
	// Partitions (default 16).
	Granules int
}

// RepartitionCache is a direct-mapped cache whose set space is divided
// among reference classes, with the division itself adapted at run time:
// every Interval misses, the class missing hardest steals one granule of
// sets from the class missing least (Graphite OCache::evolveNaive, recast
// from way reallocation to set reallocation).  Because lines carry full
// block addresses, a remapping never produces a false hit — blocks left
// behind by a moved granule either re-hit exactly or miss and refill.
type RepartitionCache struct {
	cache.DirectMapped
	name     string
	layout   addr.Layout
	by       PartitionBy
	parts    int
	interval uint64
	gsize    int // sets per granule

	counts []int // granules currently owned by each partition
	starts []int // first granule of each partition (prefix sums of counts)

	windowMisses []uint64
	windowTotal  uint64
	resizes      uint64
}

// NewRepartitionCache validates the configuration against the layout and
// returns a ready cache.
func NewRepartitionCache(l addr.Layout, cfg RepartitionConfig) (*RepartitionCache, error) {
	if cfg.Partitions == 0 {
		cfg.Partitions = 2
	}
	if cfg.By == "" {
		cfg.By = ByThread
	}
	if cfg.Interval == 0 {
		cfg.Interval = 4096
	}
	if cfg.Granules == 0 {
		cfg.Granules = 16
	}
	sets := l.Sets()
	switch cfg.By {
	case ByThread, ByAccess:
	default:
		return nil, fmt.Errorf("dynamic: unknown partition key %q", cfg.By)
	}
	if cfg.By == ByAccess && cfg.Partitions != 2 {
		return nil, fmt.Errorf("dynamic: %q partitioning requires exactly 2 partitions, got %d", ByAccess, cfg.Partitions)
	}
	if cfg.Partitions < 2 || cfg.Partitions > 16 {
		return nil, fmt.Errorf("dynamic: partition count %d out of range (2..16)", cfg.Partitions)
	}
	if cfg.Granules < cfg.Partitions || cfg.Granules > sets {
		return nil, fmt.Errorf("dynamic: granule count %d out of range (%d..%d)", cfg.Granules, cfg.Partitions, sets)
	}
	if cfg.Granules%cfg.Partitions != 0 {
		return nil, fmt.Errorf("dynamic: granule count %d must be divisible by %d partitions", cfg.Granules, cfg.Partitions)
	}
	if sets%cfg.Granules != 0 {
		return nil, fmt.Errorf("dynamic: granule count %d must divide %d sets", cfg.Granules, sets)
	}
	r := &RepartitionCache{
		DirectMapped: cache.NewDirectMapped(sets),
		name:         fmt.Sprintf("repartition/%s/%dx%d/%d", cfg.By, cfg.Partitions, cfg.Granules, cfg.Interval),
		layout:       l,
		by:           cfg.By,
		parts:        cfg.Partitions,
		interval:     cfg.Interval,
		gsize:        sets / cfg.Granules,
		counts:       make([]int, cfg.Partitions),
		starts:       make([]int, cfg.Partitions),
	}
	for p := range r.counts {
		r.counts[p] = cfg.Granules / cfg.Partitions
	}
	r.Reset()
	return r, nil
}

// Name implements cache.Model.
func (r *RepartitionCache) Name() string { return r.name }

// Sets implements cache.Model.
func (r *RepartitionCache) Sets() int { return r.layout.Sets() }

// Reset implements cache.Model: contents, counters, the adaptation window
// and the partition map all return to their initial state.
func (r *RepartitionCache) Reset() {
	r.DirectMapped.Reset()
	r.windowMisses = make([]uint64, r.parts)
	r.windowTotal = 0
	r.resizes = 0
	per := 0
	for p := range r.counts {
		// counts may have drifted through adaptation; restore the even split.
		if per == 0 {
			total := 0
			for _, c := range r.counts {
				total += c
			}
			per = total / r.parts
		}
		r.counts[p] = per
	}
	r.restarts()
}

// restarts recomputes the partition start granules from the counts.
func (r *RepartitionCache) restarts() {
	acc := 0
	for p, c := range r.counts {
		r.starts[p] = acc
		acc += c
	}
}

// partitionOf classifies one access.
func (r *RepartitionCache) partitionOf(a trace.Access) int {
	if r.by == ByAccess {
		if a.Kind == trace.Fetch {
			return 0
		}
		return 1
	}
	return int(a.Thread) % r.parts
}

// SetFor returns the current placement of an access: the conventional
// index folded into its partition's present set range.
func (r *RepartitionCache) SetFor(a trace.Access) int {
	p := r.partitionOf(a)
	span := r.counts[p] * r.gsize
	return r.starts[p]*r.gsize + int(r.layout.Index(a.Addr))%span
}

// PartitionSets returns the number of sets each partition currently owns.
func (r *RepartitionCache) PartitionSets() []int {
	out := make([]int, r.parts)
	for p, c := range r.counts {
		out[p] = c * r.gsize
	}
	return out
}

// Resizes returns how many granule moves the adaptation has performed.
func (r *RepartitionCache) Resizes() uint64 { return r.resizes }

// Access implements cache.Model.
func (r *RepartitionCache) Access(a trace.Access) cache.AccessResult {
	res := r.DirectMapped.Access(r.SetFor(a), a, r.layout.OffsetBits)
	if !res.Hit {
		r.windowMisses[r.partitionOf(a)]++
		r.windowTotal++
		if r.windowTotal >= r.interval {
			r.evolve()
		}
	}
	return res
}

// evolve is one evolveNaive step: the partition with the most misses in
// the closed window grows by a granule taken from the partition with the
// fewest, provided the donor keeps at least one granule and the window
// was not a tie.  The window counters then restart.
func (r *RepartitionCache) evolve() {
	winner, loser := 0, -1
	for p := 1; p < r.parts; p++ {
		if r.windowMisses[p] > r.windowMisses[winner] {
			winner = p
		}
	}
	for p := 0; p < r.parts; p++ {
		if p == winner || r.counts[p] <= 1 {
			continue
		}
		if loser < 0 || r.windowMisses[p] < r.windowMisses[loser] {
			loser = p
		}
	}
	if loser >= 0 && r.windowMisses[winner] > r.windowMisses[loser] {
		r.counts[winner]++
		r.counts[loser]--
		r.restarts()
		r.resizes++
	}
	for p := range r.windowMisses {
		r.windowMisses[p] = 0
	}
	r.windowTotal = 0
}

// AccessBatch implements cache.BatchAccessor.
//
//lint:hotpath replay inner loop of the dynamic repartition scheme
func (r *RepartitionCache) AccessBatch(batch []trace.Access) {
	for _, a := range batch {
		r.Access(a)
	}
}
