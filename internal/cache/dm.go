package cache

import (
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// The direct-mapped kernel.
//
// A direct-mapped, write-back, write-allocate cache holds one line per
// set, and replacement has nothing to choose.  Live replay (Access,
// AccessBatch) and a segment's scratch replay (ReplaySegmentScratch) both
// run replayDM: set numbers come a batch at a time from
// indexing.IndexBatch, so the index function costs one type switch per
// batch instead of an interface call per access, and the outcome counts
// stay in locals until the batch ends.

// replayBatchDM replays batch in chunks of len(setBuf): one IndexBatch
// call, then the kernel.  sc is nil for a live cache.
func (st *lineState) replayBatchDM(f indexing.Func, offsetBits uint, batch []trace.Access, setBuf []int32, sc *DMScratch) {
	for len(batch) > 0 {
		n := min(len(batch), len(setBuf))
		indexing.IndexBatch(f, batch[:n], setBuf)
		st.replayDM(batch[:n], setBuf[:n], offsetBits, sc)
		batch = batch[n:]
	}
}

// replayDM is the direct-mapped kernel: access i of batch goes to set
// sets[i].  With sc non-nil the lines are a segment scratch, which starts
// empty: a cold miss is then the set's first touch in the segment, and
// the first eviction in a set evicts the residency that touch began.
// Both are recorded in sc for StitchSegment, which settles the
// provisional cold miss against the line the previous segments left.
//
//lint:hotpath the direct-mapped replay inner loop, live and sharded
func (st *lineState) replayDM(batch []trace.Access, sets []int32, offsetBits uint, sc *DMScratch) {
	lines := st.lines
	perAcc, perHit, perMiss := st.perSet.Accesses, st.perSet.Hits, st.perSet.Misses
	sets = sets[:len(batch)]
	var hits, misses, evictions, writebacks uint64
	for i, a := range batch {
		set := sets[i]
		block := uint64(a.Addr) >> offsetBits
		store := a.Kind == trace.Write
		perAcc[set]++
		ln := &lines[set]
		if ln.Valid && ln.Block == block {
			hits++
			perHit[set]++
			if store {
				ln.Dirty = true
			}
			continue
		}
		misses++
		perMiss[set]++
		switch {
		case ln.Valid:
			evictions++
			if ln.Dirty {
				writebacks++
			}
			if sc != nil && sc.res0[set] == res0Resident {
				sc.res0[set] = res0EvictedClean
				if ln.Dirty {
					sc.res0[set] = res0EvictedDirty
				}
			}
		case sc != nil:
			sc.firstBlock[set] = block
			sc.touched[sc.nTouched] = set
			sc.nTouched++
		}
		*ln = Line{Valid: true, Block: block, Dirty: store}
	}
	st.counters.Accesses += uint64(len(batch))
	st.counters.Hits += hits
	st.counters.PrimaryHits += hits
	st.counters.Misses += misses
	st.counters.Evictions += evictions
	st.counters.Writebacks += writebacks
}
