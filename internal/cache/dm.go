package cache

import (
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// The direct-mapped kernel.
//
// A direct-mapped, write-back, write-allocate cache holds one line per
// set, and replacement has nothing to choose.  Every model that differs
// from such a cache only in where an access goes keeps its lines in a
// DirectMapped store: Cache (at one way), the SMT shared caches, the
// dynamic repartition cache and the dynamic index selector.  All of them
// replay through replayDM, as does a segment's scratch replay
// (ReplaySegmentScratch): set numbers come a batch at a time, so the
// placement rule runs in its own loop instead of inside the kernel, and
// the outcome counts stay in locals until the batch ends.

// DirectMapped is the line store of a direct-mapped, write-back,
// write-allocate cache: one Line per set and the Tally of its accesses.
// The caller supplies each access's set.  Its methods implement Model's
// Counters, PerSet and Reset, so a model that embeds it adds only its
// name, its set count and its placement rule.
type DirectMapped struct {
	lines []Line
	Tally
}

// NewDirectMapped returns an empty store of sets lines.
func NewDirectMapped(sets int) DirectMapped {
	return DirectMapped{lines: make([]Line, sets), Tally: NewTally(sets)}
}

// Replay replays batch, access i going to set sets[i]; block addresses
// are the access addresses shifted right by offsetBits.
//
//lint:hotpath the direct-mapped replay entry of the placement-rule models
func (st *DirectMapped) Replay(batch []trace.Access, sets []int32, offsetBits uint) {
	st.replayDM(batch, sets, offsetBits, nil)
}

// Access replays one access to set and returns its outcome, read from the
// line the access found.
func (st *DirectMapped) Access(set int, a trace.Access, offsetBits uint) AccessResult {
	prior := st.lines[set]
	batch, sets := [1]trace.Access{a}, [1]int32{int32(set)}
	st.replayDM(batch[:], sets[:], offsetBits, nil)
	switch {
	case prior.Valid && prior.Block == uint64(a.Addr)>>offsetBits:
		return AccessResult{Hit: true, HitCycles: 1}
	case prior.Valid:
		return AccessResult{Evicted: true, EvictedBlock: prior.Block, Writeback: prior.Dirty}
	}
	return AccessResult{}
}

// Reset empties every line and zeroes the counters.
func (st *DirectMapped) Reset() {
	st.Flush()
	st.Tally.Reset()
}

// Flush empties every line, discarding dirty ones without a writeback,
// and keeps the counters.
func (st *DirectMapped) Flush() { clear(st.lines) }

// replayBatch replays batch in chunks of len(setBuf): one IndexBatch
// call, then the kernel.  sc is nil for a live cache.
func (st *DirectMapped) replayBatch(f indexing.Func, offsetBits uint, batch []trace.Access, setBuf []int32, sc *DMScratch) {
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
func (st *DirectMapped) replayDM(batch []trace.Access, sets []int32, offsetBits uint, sc *DMScratch) {
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
