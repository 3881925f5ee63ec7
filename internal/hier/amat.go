// Package hier assembles the cache models into the paper's two-level
// memory hierarchy (split 32 KiB L1 I/D over a unified 256 KiB L2) and
// implements the average-memory-access-time formulas of Section IV-B.
package hier

import "cacheuniformity/internal/cache"

// Latencies fixes the cycle costs of the hierarchy levels.  The AMAT
// equations charge L1Hit for a first-probe hit; the programmable
// associativity schemes add their own extra cycles for secondary probes.
type Latencies struct {
	// L1Hit is the first-probe L1 latency (1 cycle in the paper).
	L1Hit float64
	// MissPenalty is the cost of an L1 miss served by the L2 (an L2 hit).
	MissPenalty float64
	// Memory is the additional cost when the L2 misses too.
	Memory float64
}

// DefaultLatencies mirrors the paper's setup: 1-cycle L1, 10-cycle L2 and
// a 100-cycle memory.
var DefaultLatencies = Latencies{L1Hit: 1, MissPenalty: 10, Memory: 100}

// AMATSimple is the textbook formula for single-probe caches (the
// baseline direct-mapped cache, the pure indexing schemes and the B-cache,
// whose PI match hides in the cluster decode):
//
//	AMAT = hitTime + missRate × missPenalty
func AMATSimple(ctr cache.Counters, lat Latencies, missPenalty float64) float64 {
	return lat.L1Hit + ctr.MissRate()*missPenalty
}

// AMATAdaptive is the paper's Eq. 8 for the adaptive group-associative
// cache: direct hits cost 1 cycle, everything else is charged the 3-cycle
// OUT-directory path, plus the usual miss term.
//
//	AMAT = fDirect×1 + (1−fDirect)×3 + missRate×missPenalty
//
// where fDirect is the fraction of accesses that hit on the first probe.
func AMATAdaptive(ctr cache.Counters, missPenalty float64) float64 {
	if ctr.Accesses == 0 {
		return 0
	}
	fDirect := float64(ctr.PrimaryHits) / float64(ctr.Accesses)
	return fDirect*1 + (1-fDirect)*3 + ctr.MissRate()*missPenalty
}

// AMATColumnAssociative is the paper's Eq. 9: rehash hits cost 2 cycles,
// other accesses 1, and misses that performed the rehash lookup pay one
// extra cycle on top of the miss penalty.
//
//	AMAT = fRehashHit×2 + (1−fRehashHit)×1
//	     + fRehashMiss×missRate×(missPenalty+1)
//	     + (1−fRehashMiss)×missRate×missPenalty
//
// fRehashHit is the fraction of accesses hitting in the alternate
// location; fRehashMiss is the fraction of *misses* that probed it.
func AMATColumnAssociative(ctr cache.Counters, missPenalty float64) float64 {
	if ctr.Accesses == 0 {
		return 0
	}
	fRehashHit := float64(ctr.SecondaryHits) / float64(ctr.Accesses)
	fRehashMiss := 0.0
	if ctr.Misses > 0 {
		fRehashMiss = float64(ctr.SecondaryProbeMisses) / float64(ctr.Misses)
	}
	mr := ctr.MissRate()
	return fRehashHit*2 + (1-fRehashHit)*1 +
		fRehashMiss*mr*(missPenalty+1) +
		(1-fRehashMiss)*mr*missPenalty
}
