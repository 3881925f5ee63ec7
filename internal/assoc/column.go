// Package assoc implements the programmable-associativity cache schemes of
// Section III of the paper: the column-associative cache, the adaptive
// group-associative cache, and the balanced cache (B-cache), plus the two
// conceptual ancestors described in §1.2 (pseudo-associative hash-rehash,
// which is the column-associative cache without its rehash bit, and the
// partner-index scheme of Figure 3).
//
// All models implement cache.Model, so the experiment framework can drive
// them interchangeably with the plain set-associative caches and the
// indexing schemes of package indexing.  Each keeps its own lines, since
// an access may probe or move a block between two sets, and counts every
// access through an embedded cache.Tally.
package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// Latencies of the secondary probes, from the paper's AMAT equations.
const (
	// ColumnRehashHitCycles is the latency of a column-associative hit in
	// the alternate location (Eq. 9: 2 cycles).
	ColumnRehashHitCycles = 2
	// AdaptiveOUTHitCycles is the latency of an adaptive-cache hit through
	// the OUT directory (Eq. 8: 3 cycles).
	AdaptiveOUTHitCycles = 3
)

// columnLine is a cache line with the column-associative rehash bit.
type columnLine struct {
	valid  bool
	block  uint64
	dirty  bool
	rehash bool // set when the line holds a block indexed non-conventionally
}

// ColumnAssociative implements the column-associative cache of Agarwal and
// Pudar (paper §III-A).  The cache is a direct-mapped array; on a primary
// miss the alternate location — the primary index with its most significant
// bit complemented — is probed.  A hit there swaps the two lines so the
// block moves to its conventional slot.  On a double miss the displaced
// primary block is moved to the alternate slot (rehash bit set) instead of
// being evicted.  A primary probe that lands on a line whose rehash bit is
// set is replaced immediately without a second probe: the rehash bit proves
// the conventional owner is absent.
//
// Without the rehash bit (NewPseudoAssociative) the same array is the
// hash-rehash pseudo-associative cache: every primary miss pays the second
// probe, and any block found in the alternate location is a hit.
//
// For the Figure-8 hybrid experiments the primary index function is
// pluggable; the alternate location still complements the MSB of whatever
// index the function produced.
type ColumnAssociative struct {
	cache.Tally
	name   string
	layout addr.Layout
	index  indexing.Func
	lines  []columnLine
	// rehashBit enables the short-circuit on a primary slot that holds a
	// rehashed block.  Without it every primary miss probes the alternate
	// slot.  The rehash-hit test needs no mode: a line without the rehash
	// bit always sits in its own block's primary slot, so a block found in
	// its alternate slot always carries the bit.
	rehashBit bool
}

// NewColumnAssociative builds a column-associative cache over the layout.
// idx selects the primary location; nil means the conventional modulo
// index.  The layout must have at least two sets (the alternate location
// complements the index MSB).
func NewColumnAssociative(l addr.Layout, idx indexing.Func) (*ColumnAssociative, error) {
	return newColumn(l, idx, "column_associative", true)
}

// NewPseudoAssociative builds the hash-rehash pseudo-associative cache the
// paper describes in §1.2 as the conceptual basis of programmable
// associativity: the column-associative cache without its rehash bit.
// idx selects the primary location (nil = conventional modulo).
func NewPseudoAssociative(l addr.Layout, idx indexing.Func) (*ColumnAssociative, error) {
	return newColumn(l, idx, "pseudo_associative", false)
}

func newColumn(l addr.Layout, idx indexing.Func, kind string, rehashBit bool) (*ColumnAssociative, error) {
	if l.IndexBits < 1 {
		return nil, fmt.Errorf("assoc: %s cache needs ≥ 2 sets", kind)
	}
	idx, err := primaryIndex(l, idx)
	if err != nil {
		return nil, err
	}
	c := &ColumnAssociative{name: kind + "/" + idx.Name(), layout: l, index: idx, rehashBit: rehashBit}
	c.Reset()
	return c, nil
}

// primaryIndex returns the index function that picks an access's primary
// set: idx, or the conventional modulo index when idx is nil.  idx must
// not reach past the layout's sets.
func primaryIndex(l addr.Layout, idx indexing.Func) (indexing.Func, error) {
	if idx == nil {
		return indexing.NewModulo(l), nil
	}
	if idx.Sets() > l.Sets() {
		return nil, fmt.Errorf("assoc: index function reaches %d sets, layout has %d", idx.Sets(), l.Sets())
	}
	return idx, nil
}

// Name implements cache.Model.
func (c *ColumnAssociative) Name() string { return c.name }

// Sets implements cache.Model.
func (c *ColumnAssociative) Sets() int { return c.layout.Sets() }

// Reset implements cache.Model.
func (c *ColumnAssociative) Reset() {
	c.lines = make([]columnLine, c.layout.Sets())
	c.Tally = cache.NewTally(c.layout.Sets())
}

// alternate complements the most significant index bit.
func (c *ColumnAssociative) alternate(set int) int {
	return set ^ (1 << (c.layout.IndexBits - 1))
}

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (c *ColumnAssociative) Access(a trace.Access) cache.AccessResult {
	primary := c.index.Index(a.Addr)
	alt := c.alternate(primary)
	block := c.layout.Block(a.Addr)
	store := a.Kind == trace.Write

	res := cache.AccessResult{}
	statSet := primary

	switch {
	case c.lines[primary].valid && c.lines[primary].block == block:
		// First-probe hit.
		res = cache.AccessResult{Hit: true, HitCycles: 1}
		if store {
			c.lines[primary].dirty = true
		}

	case c.rehashBit && c.lines[primary].rehash:
		// The primary slot holds a rehashed (alien) block: a conventional
		// owner cannot be elsewhere, so miss immediately and reclaim the
		// slot for conventional use.
		old := c.lines[primary]
		if old.valid {
			res.Evicted = true
			res.EvictedBlock = old.block
			res.Writeback = old.dirty
		}
		c.lines[primary] = columnLine{valid: true, block: block, dirty: store}

	case c.lines[alt].valid && c.lines[alt].block == block && c.lines[alt].rehash:
		// Rehash hit: swap so the block returns to its conventional slot.
		res = cache.AccessResult{Hit: true, SecondaryProbe: true, SecondaryHit: true, HitCycles: ColumnRehashHitCycles}
		if store {
			c.lines[alt].dirty = true
		}
		c.lines[primary], c.lines[alt] = c.lines[alt], c.lines[primary]
		c.lines[primary].rehash = false
		c.lines[alt].rehash = true
		statSet = alt

	default:
		// Miss in both: displace the primary occupant to the alternate
		// slot (rehash bit set) and fill the primary conventionally.  An
		// invalid primary needs no displacement, so the alternate slot is
		// left untouched.
		res.SecondaryProbe = true
		if displaced := c.lines[primary]; displaced.valid {
			if victim := c.lines[alt]; victim.valid {
				res.Evicted = true
				res.EvictedBlock = victim.block
				res.Writeback = victim.dirty
			}
			displaced.rehash = true
			c.lines[alt] = displaced
		}
		c.lines[primary] = columnLine{valid: true, block: block, dirty: store}
	}

	c.Record(statSet, res)
	return res
}
