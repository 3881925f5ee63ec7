package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/trace"
)

// BCacheConfig parameterises Zhang's balanced cache (paper §III-C).
//
// Starting from a direct-mapped cache with OI = layout.IndexBits index
// bits, the B-cache decodes PI+NPI = OI + log2(MappingFactor) index bits.
// The NPI (non-programmable) bits select one of 2^NPI clusters; the PI
// (programmable) bits are matched associatively against per-way index
// registers.  The cluster width is the B-cache associativity
// BAS = 2^OI / 2^NPI.  Capacity is unchanged: 2^NPI clusters × BAS ways =
// 2^OI lines.
type BCacheConfig struct {
	// MappingFactor is MF = 2^(PI+NPI) / 2^OI; must be a power of two ≥ 2.
	// The paper's configuration uses MF = 2.
	MappingFactor int
	// Associativity is BAS; must be a power of two ≥ 2 dividing the set
	// count.  The paper's configuration uses BAS = 2.
	Associativity int
	// Replacement selects victims within a cluster; nil = LRU (the paper's
	// choice).
	Replacement cache.Policy
}

// BCache implements the balanced cache.  Functionally it behaves as a
// 2^NPI-cluster, BAS-way cache whose effective index spans PI+NPI bits:
// the PI comparison is subsumed by the full block-address match, and the
// programmable index registers are exactly the PI fields of the resident
// blocks.  Hit latency remains 1 cycle — Zhang's point is that the PI
// match proceeds in parallel with the cluster decode, which is why the
// paper's Figure 7 charges the B-cache no secondary-probe penalty.
//
// Per-set statistics are kept per *line* (cluster × way), so the
// distribution has the same 2^OI buckets as the direct-mapped baseline and
// kurtosis/skewness comparisons are apples-to-apples.
type BCache struct {
	// Tally counts per line: cluster c's way w is bucket c·ways+w.
	cache.Tally
	name     string
	layout   addr.Layout
	npiBits  uint
	piBits   uint
	ways     int
	clusters [][]cache.Line
	repl     []cache.SetPolicy
	policy   cache.Policy
}

// NewBCache builds a balanced cache over the layout.
func NewBCache(l addr.Layout, cfg BCacheConfig) (*BCache, error) {
	if cfg.MappingFactor == 0 {
		cfg.MappingFactor = 2
	}
	if cfg.Associativity == 0 {
		cfg.Associativity = 2
	}
	if !addr.IsPow2(cfg.MappingFactor) || cfg.MappingFactor < 2 {
		return nil, fmt.Errorf("assoc: mapping factor %d must be a power of two ≥ 2", cfg.MappingFactor)
	}
	if !addr.IsPow2(cfg.Associativity) || cfg.Associativity < 2 {
		return nil, fmt.Errorf("assoc: B-cache associativity %d must be a power of two ≥ 2", cfg.Associativity)
	}
	oi := l.IndexBits
	basBits := uint(addr.Log2(cfg.Associativity))
	mfBits := uint(addr.Log2(cfg.MappingFactor))
	if basBits > oi {
		return nil, fmt.Errorf("assoc: associativity %d exceeds line count", cfg.Associativity)
	}
	npi := oi - basBits
	pi := basBits + mfBits
	if l.OffsetBits+npi+pi > l.AddressBits {
		return nil, fmt.Errorf("assoc: PI+NPI (%d) exceeds address width", npi+pi)
	}
	pol := cfg.Replacement
	if pol == nil {
		pol = cache.LRU{}
	}
	b := &BCache{
		name:    fmt.Sprintf("b_cache/mf%d_bas%d", cfg.MappingFactor, cfg.Associativity),
		layout:  l,
		npiBits: npi,
		piBits:  pi,
		ways:    cfg.Associativity,
		policy:  pol,
	}
	b.Reset()
	return b, nil
}

// Name implements cache.Model.
func (b *BCache) Name() string { return b.name }

// Sets implements cache.Model: statistics are per line, so the bucket
// count equals the baseline direct-mapped cache's set count.
func (b *BCache) Sets() int { return b.layout.Sets() }

// Clusters returns the number of NPI-indexed clusters.
func (b *BCache) Clusters() int { return 1 << b.npiBits }

// Ways returns the B-cache associativity (BAS).
func (b *BCache) Ways() int { return b.ways }

// Reset implements cache.Model.
func (b *BCache) Reset() {
	n := 1 << b.npiBits
	b.clusters = make([][]cache.Line, n)
	b.repl = make([]cache.SetPolicy, n)
	storage := make([]cache.Line, n*b.ways)
	for i := 0; i < n; i++ {
		b.clusters[i], storage = storage[:b.ways:b.ways], storage[b.ways:]
		b.repl[i] = b.policy.NewSet(b.ways)
	}
	b.Tally = cache.NewTally(b.layout.Sets())
}

// cluster extracts the NPI field (the bits directly above the offset).
func (b *BCache) cluster(a addr.Addr) int {
	return int(a.Bits(b.layout.OffsetBits, b.npiBits))
}

// lineIndex flattens (cluster, way) into the per-line statistics bucket.
func (b *BCache) lineIndex(cluster, way int) int { return cluster*b.ways + way }

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (b *BCache) Access(a trace.Access) cache.AccessResult {
	cl := b.cluster(a.Addr)
	block := b.layout.Block(a.Addr)
	store := a.Kind == trace.Write
	lines := b.clusters[cl]
	repl := b.repl[cl]

	res := cache.AccessResult{}
	way := -1
	for w := range lines {
		if lines[w].Valid && lines[w].Block == block {
			way = w
			break
		}
	}
	if way >= 0 {
		repl.Touch(way)
		if store {
			lines[way].Dirty = true
		}
		res = cache.AccessResult{Hit: true, HitCycles: 1}
	} else {
		for w := range lines {
			if !lines[w].Valid {
				way = w
				break
			}
		}
		if way < 0 {
			way = repl.Victim()
			res.Evicted = true
			res.EvictedBlock = lines[way].Block
			res.Writeback = lines[way].Dirty
		}
		lines[way] = cache.Line{Valid: true, Block: block, Dirty: store}
		repl.Fill(way)
	}

	b.Record(b.lineIndex(cl, way), res)
	return res
}
