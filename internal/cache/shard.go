package cache

import (
	"errors"
	"io"

	"cacheuniformity/internal/trace"
)

// Windowed-exact sharded replay for direct-mapped caches.
//
// A direct-mapped, write-back, write-allocate cache with a pure index
// function has per-set state of exactly one line, and sets never interact.
// Replaying a *segment* of the trace against an empty scratch cache
// resolves every access exactly — except, per set, the segment's first
// access to that set, whose hit/miss outcome depends on the line the
// previous segments left behind.  The protocol therefore has two phases:
//
//  1. Scratch (parallelisable per segment): replay the segment into a
//     DMScratch through the direct-mapped kernel.  Each set's first touch
//     is a cold miss there, counted provisionally; the kernel records its
//     block, and what later happened to the residency it started
//     ("residency 0"): evicted within the segment (locally clean or
//     dirty at that point), or still resident at segment end.
//  2. Stitch (serial, in segment order): resolve each provisional cold
//     miss against the authoritative line state — a hit when the prior
//     segment left the same block resident, otherwise a miss that also
//     evicts (and maybe writes back) the prior line.  A load that hits a
//     dirty prior line carries that dirt into residency 0, which the
//     scratch pass modelled as clean: the stitch adds the missing
//     writeback if that residency was evicted locally clean, or re-marks
//     the final line dirty if it survived the segment.  Finally the
//     scratch's per-set end state becomes the new authoritative state.
//
// Every counter is either a pure per-segment sum (accesses — the
// stateless per-set counts — plus all post-first-touch events) or is
// resolved exactly at a boundary, so the merged counters, per-set counts
// and final line states are byte-identical to serial replay.  The only
// state not reconstructed is the replacement policy's, which is
// informationless at associativity 1 — the reason this engine accepts
// direct-mapped caches only.

// ShardReplayable reports whether m qualifies for the windowed-exact
// sharded replay: a direct-mapped, write-back, write-allocate *Cache.
// The planner combines this structural check with the registry's
// per-kind Shardable capability.
func ShardReplayable(m Model) (*Cache, bool) {
	c, ok := m.(*Cache)
	if !ok || !c.directMapped() {
		return nil, false
	}
	return c, true
}

// Residency-0 states of a scratch set (see the protocol above).
const (
	res0Resident     uint8 = iota // untouched, or residency 0 still resident
	res0EvictedClean              // evicted within the segment, locally clean
	res0EvictedDirty              // evicted within the segment, locally dirty
)

// DMScratch is the per-segment scratch state of the sharded replay.  It
// is sized for one cache's set count and reusable via Reset.  It owns its
// set-number buffer, so concurrent scratch replays only read the Cache.
type DMScratch struct {
	store  DirectMapped // segment-local lines and counters
	setBuf []int32

	firstBlock []uint64 // block of the set's first touch
	res0       []uint8  // residency-0 state per set
	touched    []int32  // sets touched, in first-touch order
	nTouched   int
}

// NewDMScratch allocates scratch state for replaying segments against c.
func (c *Cache) NewDMScratch() *DMScratch {
	n := c.layout.Sets()
	return &DMScratch{
		store:      NewDirectMapped(n),
		setBuf:     make([]int32, trace.DefaultBatch),
		firstBlock: make([]uint64, n),
		res0:       make([]uint8, n),
		touched:    make([]int32, n),
	}
}

// Reset clears the scratch for the next segment.
func (s *DMScratch) Reset() {
	st := &s.store
	st.counters = Counters{}
	for _, set := range s.touched[:s.nTouched] {
		st.perSet.Accesses[set] = 0
		st.perSet.Hits[set] = 0
		st.perSet.Misses[set] = 0
		st.lines[set] = Line{}
		s.res0[set] = res0Resident
	}
	s.nTouched = 0
}

// ReplaySegmentScratch replays one segment's stream into the scratch.
// The reader is always released.  The cache itself is read-only here
// (index function and layout), so scratch replays of different segments
// may run concurrently against the same cache.
func (c *Cache) ReplaySegmentScratch(r trace.BatchReader, buf []trace.Access, s *DMScratch) error {
	defer trace.CloseBatch(r)
	if len(buf) == 0 {
		buf = make([]trace.Access, trace.DefaultBatch)
	}
	for {
		n, err := r.ReadBatch(buf)
		s.store.replayBatch(c.index, c.layout.OffsetBits, buf[:n], s.setBuf, s)
		if n == 0 {
			if err == nil || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// StitchSegment merges one segment's scratch into the live cache,
// settling each set's provisional cold miss against the authoritative
// line state.  Segments must be stitched serially in trace order; the
// merge loop touches only the sets the segment accessed.
func (c *Cache) StitchSegment(s *DMScratch) {
	live, sc := &c.store, &s.store
	live.counters.Accesses += sc.counters.Accesses
	live.counters.Hits += sc.counters.Hits
	live.counters.PrimaryHits += sc.counters.PrimaryHits
	live.counters.Misses += sc.counters.Misses
	live.counters.Evictions += sc.counters.Evictions
	live.counters.Writebacks += sc.counters.Writebacks
	//lint:hotpath boundary merge loop of the sharded replay
	for _, set := range s.touched[:s.nTouched] {
		live.perSet.Accesses[set] += sc.perSet.Accesses[set]
		live.perSet.Hits[set] += sc.perSet.Hits[set]
		live.perSet.Misses[set] += sc.perSet.Misses[set]

		prior := live.lines[set]
		carried := false
		switch {
		case prior.Valid && prior.Block == s.firstBlock[set]:
			// The provisional cold miss was a hit.
			live.counters.Misses--
			live.counters.Hits++
			live.counters.PrimaryHits++
			live.perSet.Misses[set]--
			live.perSet.Hits[set]++
			carried = prior.Dirty
		case prior.Valid:
			live.counters.Evictions++
			if prior.Dirty {
				live.counters.Writebacks++
			}
		}
		if carried && s.res0[set] == res0EvictedClean {
			// Residency 0 inherited the prior line's dirt, was modelled
			// clean locally, and left the cache without a writeback: the
			// stitch owes one.
			live.counters.Writebacks++
		}
		final := sc.lines[set]
		if carried && s.res0[set] == res0Resident {
			final.Dirty = true
		}
		live.lines[set] = final
	}
}
