package cache

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/trace"
)

// FullyAssociative is a fully-associative cache with a pluggable
// replacement policy.  The paper uses the fully-associative cache with a
// perfect replacement policy as the theoretical lower bound for miss rates
// (§III); pair this with OptMisses for that bound, or with LRU for the
// realistic upper envelope of associativity.
type FullyAssociative struct {
	Tally    // one pseudo-set
	layout   addr.Layout
	capacity int // lines
	policy   Policy

	lines []Line
	repl  SetPolicy
	// where maps a resident block to its line, replacing the full-capacity
	// linear scan on every access; lines are never invalidated outside
	// Reset, so membership here mirrors Line.Valid exactly.
	where map[uint64]int
	// used counts filled lines; fills land on lines sequentially (the
	// lowest invalid line is always line `used`) until the cache is full.
	used int
}

// NewFullyAssociative builds a fully-associative cache holding capacity
// lines of the layout's block size.
func NewFullyAssociative(l addr.Layout, capacity int, pol Policy) (*FullyAssociative, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: fully-associative capacity %d must be positive", capacity)
	}
	if pol == nil {
		pol = LRU{}
	}
	if v, ok := pol.(WaysValidator); ok {
		if err := v.ValidateWays(capacity); err != nil {
			return nil, err
		}
	}
	f := &FullyAssociative{layout: l, capacity: capacity, policy: pol}
	f.Reset()
	return f, nil
}

// Name implements Model.
func (f *FullyAssociative) Name() string { return "fully_associative" }

// Sets implements Model: a fully-associative cache is one big set.
func (f *FullyAssociative) Sets() int { return 1 }

// Reset implements Model.
func (f *FullyAssociative) Reset() {
	f.lines = make([]Line, f.capacity)
	f.repl = f.policy.NewSet(f.capacity)
	f.where = make(map[uint64]int, f.capacity)
	f.used = 0
	f.Tally = NewTally(1)
}

// Access implements Model.
func (f *FullyAssociative) Access(a trace.Access) AccessResult {
	block := f.layout.Block(a.Addr)
	store := a.Kind == trace.Write
	res := AccessResult{}
	if found, ok := f.where[block]; ok {
		f.repl.Touch(found)
		if store {
			f.lines[found].Dirty = true
		}
		res = AccessResult{Hit: true, HitCycles: 1}
	} else {
		var way int
		if f.used < f.capacity {
			way = f.used
			f.used++
		} else {
			way = f.repl.Victim()
			res.Evicted = true
			res.EvictedBlock = f.lines[way].Block
			res.Writeback = f.lines[way].Dirty
			delete(f.where, f.lines[way].Block)
		}
		f.lines[way] = Line{Valid: true, Block: block, Dirty: store}
		f.where[block] = way
		f.repl.Fill(way)
	}
	f.Record(0, res)
	return res
}

// OptMisses returns the miss count of a fully-associative cache of the
// given capacity (in blocks) under Belady's optimal offline replacement —
// the paper's "perfect replacement policy" lower bound.  The input is the
// block-address sequence of the trace.
func OptMisses(blocks []uint64, capacity int) uint64 {
	if capacity <= 0 {
		return uint64(len(blocks))
	}
	// next[i] = position of the next use of blocks[i] after i (len = never).
	n := len(blocks)
	next := make([]int, n)
	last := make(map[uint64]int, capacity*2)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[blocks[i]] = i
	}

	resident := make(map[uint64]int, capacity) // block → next use position
	var misses uint64
	for i, b := range blocks {
		if _, ok := resident[b]; ok {
			resident[b] = next[i]
			continue
		}
		misses++
		if len(resident) >= capacity {
			// Evict the block whose next use is farthest in the future.
			victim, far := uint64(0), -1
			for blk, nu := range resident {
				if nu > far {
					victim, far = blk, nu
				}
			}
			delete(resident, victim)
		}
		resident[b] = next[i]
	}
	return misses
}

// BlockSequence extracts the block-address sequence of a trace under the
// layout, the input format OptMisses expects.
func BlockSequence(tr trace.Trace, l addr.Layout) []uint64 {
	out := make([]uint64, len(tr))
	for i, a := range tr {
		out[i] = l.Block(a.Addr)
	}
	return out
}
