package assoc

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// SkewedAssociative implements Seznec's skewed-associative cache, the
// classic relative of the paper's "different indexing schemes in one
// cache" idea (Figure 5): a w-way cache where each way is indexed by a
// *different* hash function, so two blocks that conflict in one way
// almost surely coexist in another.  The paper cites the underlying
// hashing literature ([5], [12]) but does not evaluate skewing; we include
// it as a reference point because it bridges the two families under
// study — it is simultaneously an indexing scheme and an associativity
// scheme.
//
// Replacement is per-way round-robin on a global counter (skewed caches
// cannot keep set-local LRU because "the set" differs per way; Seznec's
// pseudo-LRU needs extra state we model with the simple rotation).
type SkewedAssociative struct {
	cache.Tally
	name   string
	layout addr.Layout // layout of one way's bank
	funcs  []indexing.Func
	banks  [][]cache.Line

	fill int // rotating fill pointer
}

// NewSkewedAssociative builds a skewed cache with one bank per index
// function.  The total capacity is len(funcs) × bankLayout.Sets() lines.
// Classic 2-way skewing passes the conventional index and an XOR-scrambled
// variant (see DefaultSkewFuncs).
func NewSkewedAssociative(bankLayout addr.Layout, funcs []indexing.Func) (*SkewedAssociative, error) {
	if len(funcs) < 2 {
		return nil, fmt.Errorf("assoc: skewed cache needs ≥ 2 ways, got %d", len(funcs))
	}
	name := "skewed"
	for _, f := range funcs {
		if f == nil {
			return nil, fmt.Errorf("assoc: nil index function")
		}
		if f.Sets() > bankLayout.Sets() {
			return nil, fmt.Errorf("assoc: index %s reaches %d sets, bank has %d",
				f.Name(), f.Sets(), bankLayout.Sets())
		}
		name += "/" + f.Name()
	}
	s := &SkewedAssociative{name: name, layout: bankLayout, funcs: funcs}
	s.Reset()
	return s, nil
}

// DefaultSkewFuncs returns the canonical 2-way skewing pair for a bank
// layout: conventional modulo for way 0 and XOR hashing for way 1.
func DefaultSkewFuncs(bankLayout addr.Layout) []indexing.Func {
	return []indexing.Func{
		indexing.NewModulo(bankLayout),
		indexing.NewXOR(bankLayout),
	}
}

// Name implements cache.Model.
func (s *SkewedAssociative) Name() string { return s.name }

// Sets implements cache.Model: statistics are per line across all banks
// (bank b's set i is bucket b·Sets+i).
func (s *SkewedAssociative) Sets() int { return len(s.funcs) * s.layout.Sets() }

// Ways returns the number of banks (the skewed associativity).
func (s *SkewedAssociative) Ways() int { return len(s.funcs) }

// Reset implements cache.Model.
func (s *SkewedAssociative) Reset() {
	s.banks = make([][]cache.Line, len(s.funcs))
	for b := range s.banks {
		s.banks[b] = make([]cache.Line, s.layout.Sets())
	}
	s.fill = 0
	s.Tally = cache.NewTally(s.Sets())
}

// bucket flattens (bank, set) into the per-line statistics index.
func (s *SkewedAssociative) bucket(bank, set int) int { return bank*s.layout.Sets() + set }

// Access implements cache.Model.
//
//lint:hotpath per-access scheme hot path
func (s *SkewedAssociative) Access(a trace.Access) cache.AccessResult {
	block := s.layout.Block(a.Addr)
	store := a.Kind == trace.Write

	res := cache.AccessResult{}
	statBucket := -1
	for b, f := range s.funcs {
		set := f.Index(a.Addr)
		if ln := &s.banks[b][set]; ln.Valid && ln.Block == block {
			res = cache.AccessResult{Hit: true, HitCycles: 1}
			if store {
				ln.Dirty = true
			}
			statBucket = s.bucket(b, set)
			break
		}
	}
	if !res.Hit {
		// Fill: prefer an empty candidate line; otherwise rotate among the
		// banks so no hash function's mapping dominates eviction.
		bank := -1
		for b, f := range s.funcs {
			if !s.banks[b][f.Index(a.Addr)].Valid {
				bank = b
				break
			}
		}
		if bank < 0 {
			bank = s.fill % len(s.funcs)
			s.fill++
		}
		set := s.funcs[bank].Index(a.Addr)
		if ln := s.banks[bank][set]; ln.Valid {
			res.Evicted = true
			res.EvictedBlock = ln.Block
			res.Writeback = ln.Dirty
		}
		s.banks[bank][set] = cache.Line{Valid: true, Block: block, Dirty: store}
		statBucket = s.bucket(bank, set)
	}

	s.Record(statBucket, res)
	return res
}
